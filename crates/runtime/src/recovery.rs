//! Crash/restart support: the per-site write-ahead journal, a site's
//! one durable log.
//!
//! A site persists every MSet it accepts, every COMPE decision it takes
//! on, every view it installs and, when one passed an MSet it
//! originated, its links' acknowledged cursors, to an append-only [`FileQueue`] journal — the
//! executor's half of [`crate::ctrl::Effect::Record`], written by the
//! reactor cycle's commit ([`crate::commit`]) in one append before any
//! of the cycle's sends — and acknowledges the inbound envelope only
//! afterwards, so a crash can lose link contents but never an
//! acknowledged update. Restart replays the journal through
//! [`crate::ctrl::NodeCore::recover`] into the newest view recorded,
//! which rebuilds the replica and re-announces the recovered applies,
//! re-sends the MSets the site originated above each peer's newest
//! recorded cursor, and passes every journalled decision on again; the
//! rest of the control plane (completion notices, VTNC horizons, view
//! state) comes back through the core's Hello exchange. This is
//! `esrd`'s journal; the simulator runs the same recovery path over an
//! in-memory one (DESIGN.md §10).

use std::io;
use std::path::Path;

use bytes::Bytes;

use esr_replica::ctrl::Record;
use esr_replica::mset::MSet;
use esr_replica::wire::{decode_record, encode_record};
use esr_storage::stable_queue::{EntryId, FileQueue, StableQueue};

/// A site's durable journal: encoded records in acceptance order.
/// Entries stay live until a checkpoint covering them is installed;
/// [`ApplyJournal::retire_through`] then acknowledges the covered
/// prefix so compaction can reclaim it.
#[derive(Debug)]
pub struct ApplyJournal {
    queue: FileQueue,
    entries: u64,
}

impl ApplyJournal {
    /// Opens (or reopens after a crash) the journal at `path`.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let queue = FileQueue::open(path)?;
        let entries = queue.len() as u64;
        Ok(Self { queue, entries })
    }

    /// Durably records an accepted MSet: [`ApplyJournal::append`] of
    /// one MSet record. Must be called before the envelope that carried
    /// the MSet is acked. Returns the approximate bytes appended, for
    /// checkpoint-policy accounting.
    pub fn record(&mut self, mset: &MSet) -> u64 {
        self.append(&[Record::MSet(mset.clone())])
    }

    /// Durably records every record of a commit, in order, with one
    /// append (a crash mid-write leaves a whole-record prefix). Returns
    /// the approximate bytes appended.
    pub fn append(&mut self, records: &[Record]) -> u64 {
        let encoded: Vec<Bytes> = records.iter().map(encode_record).collect();
        // Record framing + payload, per record.
        let bytes = encoded.iter().map(|e| 13 + e.len() as u64).sum();
        self.entries += encoded.len() as u64;
        self.queue.enqueue_batch(encoded);
        bytes
    }

    /// Decodes every journalled MSet in acceptance order. Panics on a
    /// record that does not decode, which [`ApplyJournal::records`]
    /// reports as an error instead.
    pub fn replay(&self) -> Vec<MSet> {
        match self.replay_entries() {
            Ok(entries) => entries.into_iter().map(|(_, m)| m).collect(),
            Err(e) => panic!("{e}"),
        }
    }

    /// Every live journalled MSet with its stable entry id: the MSet
    /// records of [`ApplyJournal::records`].
    pub fn replay_entries(&self) -> io::Result<Vec<(u64, MSet)>> {
        let records = self.records()?.into_iter();
        Ok(records
            .filter_map(|(id, r)| match r {
                Record::MSet(m) => Some((id, m)),
                _ => None,
            })
            .collect())
    }

    /// Decodes every live record with its stable entry id — the
    /// id-aware walk checkpoint recovery uses to split the log at a
    /// snapshot's `covered_through` cut. A well-framed record that does
    /// not decode is an `InvalidData` error naming its id.
    pub fn records(&self) -> io::Result<Vec<(u64, Record)>> {
        self.queue
            .pending(usize::MAX)
            .into_iter()
            .map(|(id, payload)| {
                let r = decode_record(&payload).map_err(|e| {
                    let why = format!("journal record {} undecodable: {e}", id.0);
                    io::Error::new(io::ErrorKind::InvalidData, why)
                })?;
                Ok((id.0, r))
            })
            .collect()
    }

    /// The stable id of the newest record ever journalled, or `None`
    /// for a journal that never held one. Monotone across recovery,
    /// retirement, and compaction (the queue pins its allocator).
    pub fn last_id(&self) -> Option<u64> {
        let next = self.queue.next_id();
        (next > 0).then(|| next - 1)
    }

    /// Retires every entry with id `<= through`: the installed
    /// checkpoint covers them, so replay no longer needs them.
    /// Retirement is an ack, not a delete — the bytes are reclaimed by
    /// the queue's compaction once enough accumulate. Returns the
    /// number of entries retired.
    pub fn retire_through(&mut self, through: u64) -> u64 {
        let covered: Vec<EntryId> = self
            .queue
            .pending(usize::MAX)
            .into_iter()
            .map(|(id, _)| id)
            .filter(|id| id.0 <= through)
            .collect();
        self.queue.ack_batch(&covered) as u64
    }

    /// Number of live (unretired) journal entries.
    pub fn live_entries(&self) -> u64 {
        self.queue.len() as u64
    }

    /// Bytes currently occupied by the journal file (the queue's own
    /// running count — no filesystem call).
    pub fn file_bytes(&self) -> u64 {
        self.queue.file_len()
    }

    /// Number of records journalled this incarnation (live entries at
    /// open plus records appended since; retirement does not decrement).
    pub fn entries(&self) -> u64 {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_core::ids::{EtId, ObjectId, SiteId};
    use esr_core::op::{ObjectOp, Operation};

    #[test]
    fn journal_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("esr-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j1.log");
        let _ = std::fs::remove_file(&path);
        let m1 = MSet::new(
            EtId(1),
            SiteId(0),
            vec![ObjectOp::new(ObjectId(0), Operation::Incr(5))],
        );
        let m2 = MSet::new(
            EtId(2),
            SiteId(1),
            vec![ObjectOp::new(ObjectId(1), Operation::Write(esr_core::value::Value::Int(9)))],
        );
        {
            let mut j = ApplyJournal::open(&path).unwrap();
            j.record(&m1);
            j.record(&m2);
            assert_eq!(j.entries(), 2);
            assert_eq!(j.file_bytes(), std::fs::metadata(&path).unwrap().len());
        } // "crash": journal dropped without ceremony
        let j = ApplyJournal::open(&path).unwrap();
        assert_eq!(j.entries(), 2);
        assert_eq!(j.file_bytes(), std::fs::metadata(&path).unwrap().len());
        let replayed = j.replay();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0].et, EtId(1));
        assert_eq!(replayed[1].et, EtId(2));
        assert_eq!(replayed[1].ops, m2.ops);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_batch_is_the_same_journal_as_its_records_one_by_one() {
        let dir = std::env::temp_dir().join(format!("esr-journal-batch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (single, batch) = (dir.join("single.log"), dir.join("batch.log"));
        let _ = std::fs::remove_file(&single);
        let _ = std::fs::remove_file(&batch);
        let msets: Vec<MSet> = (1..=3)
            .map(|et| {
                MSet::new(
                    EtId(et),
                    SiteId(et % 2),
                    vec![ObjectOp::new(ObjectId(et), Operation::Incr(et as i64))],
                )
            })
            .collect();
        let mut j1 = ApplyJournal::open(&single).unwrap();
        let bytes: u64 = msets.iter().map(|m| j1.record(m)).sum();
        let mut jn = ApplyJournal::open(&batch).unwrap();
        let records: Vec<Record> = msets.iter().cloned().map(Record::MSet).collect();
        assert_eq!(jn.append(&records), bytes);
        assert_eq!(jn.append(&[]), 0, "an empty batch writes nothing");
        assert_eq!((jn.entries(), jn.last_id()), (3, Some(2)));
        assert_eq!(std::fs::read(&batch).unwrap(), std::fs::read(&single).unwrap());
        assert_eq!(jn.replay(), msets);
        // A decision record reads back as one, and an MSet replay skips it.
        let decision = Record::Decision {
            et: EtId(2),
            commit: false,
        };
        jn.append(std::slice::from_ref(&decision));
        drop(jn);
        let jn = ApplyJournal::open(&batch).unwrap();
        assert_eq!(jn.records().unwrap().pop(), Some((3, decision)));
        assert_eq!(jn.replay(), msets);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retire_through_drops_the_covered_prefix_and_keeps_ids() {
        let dir = std::env::temp_dir().join(format!("esr-journal-retire-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("retire.log");
        let _ = std::fs::remove_file(&path);
        let mk = |et: u64| {
            MSet::new(
                EtId(et),
                SiteId(0),
                vec![ObjectOp::new(ObjectId(0), Operation::Incr(1))],
            )
        };
        let mut j = ApplyJournal::open(&path).unwrap();
        for et in 1..=5 {
            assert!(j.record(&mk(et)) > 13);
        }
        let ids: Vec<u64> = j
            .replay_entries()
            .unwrap()
            .iter()
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(j.last_id(), Some(4));
        // Retire the first three; the suffix survives with stable ids.
        assert_eq!(j.retire_through(2), 3);
        assert_eq!(j.retire_through(2), 0, "retirement is idempotent");
        assert_eq!(j.live_entries(), 2);
        assert_eq!(j.file_bytes(), std::fs::metadata(&path).unwrap().len());
        let left: Vec<(u64, EtId)> = j
            .replay_entries()
            .unwrap()
            .into_iter()
            .map(|(id, m)| (id, m.et))
            .collect();
        assert_eq!(left, vec![(3, EtId(4)), (4, EtId(5))]);
        drop(j);
        // Reopen: retired entries stay gone, the allocator stays pinned.
        let mut j2 = ApplyJournal::open(&path).unwrap();
        assert_eq!(j2.live_entries(), 2);
        assert_eq!(j2.last_id(), Some(4));
        j2.record(&mk(6));
        assert_eq!(j2.last_id(), Some(5));
        let _ = std::fs::remove_file(&path);
    }
}

//! Stable queues (§2.2).
//!
//! The paper factors message-loss handling out of replica control by
//! assuming *stable queues* that "persistently retry message delivery
//! until successful". A stable queue holds each update MSet until the
//! destination acknowledges it.
//!
//! Two implementations share the [`StableQueue`] interface:
//!
//! * [`MemQueue`] — in-memory: every `esrd` link queue. A crash empties
//!   it; what makes the link stable is the site's journal, which holds
//!   every MSet the site originated and re-seeds the links at boot;
//! * [`FileQueue`] — append-only file-backed, keeping every live
//!   entry's payload in memory as well. Reopening the file after a
//!   crash recovers exactly the unacknowledged entries. No runtime uses
//!   it: the journal is a [`JournalLog`](crate::journal_log::JournalLog),
//!   whose file is its only copy and whose file format — the framing
//!   defined in [`crate::journal_log`] — this queue shares, so either
//!   opens the other's file.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use bytes::{BufMut, Bytes, BytesMut};

use crate::journal_log::{
    compaction_due, put_enqueue, put_mark, Framed, Frames, ENQUEUE_HEADER, MARK_LEN, TAG_ACK,
    TAG_NEXT_ID,
};

/// Identifier of one queue entry, assigned at enqueue time and stable
/// across recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntryId(pub u64);

/// The stable-queue contract: at-least-once delivery with explicit
/// acknowledgement.
pub trait StableQueue {
    /// Appends a payload; returns its stable id.
    fn enqueue(&mut self, payload: Bytes) -> EntryId;

    /// Appends every payload, in order; returns their stable ids. A
    /// durable implementation makes the whole batch one write whose
    /// bytes equal those of the single calls, so a crash mid-batch
    /// leaves a whole-record prefix.
    fn enqueue_batch(&mut self, payloads: Vec<Bytes>) -> Vec<EntryId> {
        payloads.into_iter().map(|p| self.enqueue(p)).collect()
    }

    /// The unacknowledged entries, oldest first, up to `max`.
    fn pending(&self, max: usize) -> Vec<(EntryId, Bytes)> {
        self.pending_after(None, max)
    }

    /// The unacknowledged entries with ids strictly greater than
    /// `after`, oldest first, up to `max` — the cursor a draining
    /// sender uses to pick up where its last transmission stopped
    /// without rescanning (or re-sending) everything still awaiting
    /// acknowledgement. `after = None` starts from the head, so
    /// `pending_after(None, max)` equals `pending(max)`.
    fn pending_after(&self, after: Option<EntryId>, max: usize) -> Vec<(EntryId, Bytes)>;

    /// Acknowledges (removes) a delivered entry. Returns `false` when the
    /// entry was unknown (e.g. duplicate ack).
    fn ack(&mut self, id: EntryId) -> bool;

    /// Acknowledges every listed entry (one write, like
    /// [`StableQueue::enqueue_batch`]); returns how many were known.
    fn ack_batch(&mut self, ids: &[EntryId]) -> usize {
        ids.iter().filter(|id| self.ack(**id)).count()
    }

    /// Number of unacknowledged entries.
    fn len(&self) -> usize;

    /// True when every entry has been acknowledged.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// In-memory stable queue.
#[derive(Debug, Clone, Default)]
pub struct MemQueue {
    entries: BTreeMap<EntryId, Bytes>,
    next_id: u64,
}

impl MemQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StableQueue for MemQueue {
    fn enqueue(&mut self, payload: Bytes) -> EntryId {
        let id = EntryId(self.next_id);
        self.next_id += 1;
        self.entries.insert(id, payload);
        id
    }

    fn pending_after(&self, after: Option<EntryId>, max: usize) -> Vec<(EntryId, Bytes)> {
        pending_after_of(&self.entries, after, max)
    }

    fn ack(&mut self, id: EntryId) -> bool {
        self.entries.remove(&id).is_some()
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Shared `pending_after` walk over an entry map: everything strictly
/// beyond the cursor, oldest first.
fn pending_after_of(
    entries: &BTreeMap<EntryId, Bytes>,
    after: Option<EntryId>,
    max: usize,
) -> Vec<(EntryId, Bytes)> {
    let range = match after {
        Some(id) => entries.range((std::ops::Bound::Excluded(id), std::ops::Bound::Unbounded)),
        None => entries.range(..),
    };
    range
        .take(max)
        .map(|(id, payload)| (*id, payload.clone()))
        .collect()
}

/// File-backed stable queue: an append-only log of enqueue/ack records.
#[derive(Debug)]
pub struct FileQueue {
    path: PathBuf,
    file: File,
    entries: BTreeMap<EntryId, Bytes>,
    next_id: u64,
    /// Bytes of the log occupied by acknowledged records (the dead
    /// enqueue plus its ack record) since the last rewrite.
    dead_bytes: u64,
    /// Length of the backing file: the valid prefix found at open, plus
    /// every record appended since, reset by each compaction rewrite.
    file_len: u64,
}

impl FileQueue {
    /// Opens (or creates) a queue file, recovering unacknowledged
    /// entries.
    ///
    /// A torn tail (a record cut short by a crash mid-append) or a
    /// corrupt record stops replay *and truncates the file back to the
    /// last fully-valid record*. Without the truncation, records
    /// appended after the garbage tail would be unreachable on the
    /// following reopen — replay stops at the first bad byte, so
    /// durably-enqueued entries would silently vanish.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut entries = BTreeMap::new();
        let mut next_id = 0u64;
        let buf = match std::fs::read(&path) {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let mut frames = Frames::new(&buf);
        for (_, framed) in &mut frames {
            match framed {
                Framed::Enqueue { id, payload } => {
                    entries.insert(EntryId(id), Bytes::copy_from_slice(payload));
                    next_id = next_id.max(id + 1);
                }
                Framed::Ack(id) => {
                    entries.remove(&EntryId(id));
                    next_id = next_id.max(id + 1);
                }
                // The pinned allocator value ("the next id is at least
                // this"), not an entry id — hence max(id), not
                // max(id + 1).
                Framed::NextId(id) => next_id = next_id.max(id),
            }
        }
        let valid_len = frames.valid_len() as u64;
        if valid_len < buf.len() as u64 {
            // Drop the torn/corrupt tail so future appends land
            // directly after the last valid record.
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(valid_len)?;
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Self {
            path,
            file,
            entries,
            next_id,
            dead_bytes: 0,
            file_len: valid_len,
        })
    }

    /// The file backing this queue.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The id the next enqueue will be assigned. Monotone across
    /// recovery and compaction; `next_id() - 1` is therefore the id of
    /// the newest record ever enqueued (when any was).
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Bytes currently occupied by the backing file, tracked without
    /// touching the filesystem.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// Appends whole records with one `write` straight to the file, so
    /// they are with the OS on return (a real system would also fsync
    /// here).
    fn append(&mut self, recs: &[u8]) -> io::Result<()> {
        self.file.write_all(recs)?;
        self.file_len += recs.len() as u64;
        Ok(())
    }

    /// Compacts the log: rewrites the file with only the live entries
    /// (plus a NEXT_ID record pinning the id allocator, so a fully
    /// acknowledged queue does not restart ids from zero on reopen).
    /// Entry ids are stable across compaction, so `pending_after`
    /// cursors held by senders survive.
    pub fn compact(&mut self) -> io::Result<()> {
        let tmp = self.path.with_extension("compact");
        let mut len = MARK_LEN as u64;
        {
            let mut out = BufWriter::new(File::create(&tmp)?);
            let mut rec = BytesMut::new();
            put_mark(&mut rec, TAG_NEXT_ID, self.next_id);
            out.write_all(&rec)?;
            for (id, payload) in &self.entries {
                rec = BytesMut::with_capacity(ENQUEUE_HEADER + payload.len());
                put_enqueue(&mut rec, id.0, |b| b.put_slice(payload));
                out.write_all(&rec)?;
                len += rec.len() as u64;
            }
            out.flush()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.dead_bytes = 0;
        self.file_len = len;
        Ok(())
    }
}

impl StableQueue for FileQueue {
    fn enqueue(&mut self, payload: Bytes) -> EntryId {
        self.enqueue_batch(vec![payload])[0]
    }

    #[expect(clippy::expect_used, reason = "a failed append to the backing file leaves the queue unusable; panicking is the recovery story")]
    fn enqueue_batch(&mut self, payloads: Vec<Bytes>) -> Vec<EntryId> {
        let bytes: usize = payloads.iter().map(|p| ENQUEUE_HEADER + p.len()).sum();
        let mut recs = BytesMut::with_capacity(bytes);
        for (id, payload) in (self.next_id..).zip(&payloads) {
            put_enqueue(&mut recs, id, |b| b.put_slice(payload));
        }
        self.append(&recs).expect("queue file append");
        payloads
            .into_iter()
            .map(|payload| {
                let id = EntryId(self.next_id);
                self.next_id += 1;
                self.entries.insert(id, payload);
                id
            })
            .collect()
    }

    fn pending_after(&self, after: Option<EntryId>, max: usize) -> Vec<(EntryId, Bytes)> {
        pending_after_of(&self.entries, after, max)
    }

    fn ack(&mut self, id: EntryId) -> bool {
        self.ack_batch(&[id]) == 1
    }

    #[expect(clippy::expect_used, reason = "a failed append to the backing file leaves the queue unusable; panicking is the recovery story")]
    fn ack_batch(&mut self, ids: &[EntryId]) -> usize {
        let mut recs = BytesMut::with_capacity(MARK_LEN * ids.len());
        let mut dead = 0;
        for id in ids {
            let Some(payload) = self.entries.remove(id) else {
                continue;
            };
            put_mark(&mut recs, TAG_ACK, id.0);
            // The entry's enqueue record and its ack are both dead
            // weight now.
            dead += (ENQUEUE_HEADER + payload.len() + MARK_LEN) as u64;
        }
        if recs.is_empty() {
            return 0;
        }
        self.append(&recs).expect("queue file append");
        self.dead_bytes += dead;
        // A failed compaction is ignored: the log stays append-only
        // correct, just longer than asked.
        if compaction_due(self.dead_bytes, self.file_len) {
            let _ = self.compact();
        }
        recs.len() / MARK_LEN
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal_log::TAG_ENQUEUE;

    fn tmpdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "esr-queue-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn mem_queue_fifo_and_ack() {
        let mut q = MemQueue::new();
        let a = q.enqueue(Bytes::from_static(b"a"));
        let b = q.enqueue(Bytes::from_static(b"b"));
        assert_eq!(q.len(), 2);
        let pending = q.pending(10);
        assert_eq!(pending[0].0, a);
        assert_eq!(pending[1].1.as_ref(), b"b");
        assert!(q.ack(a));
        assert!(!q.ack(a), "double ack is rejected");
        assert_eq!(q.len(), 1);
        assert!(q.ack(b));
        assert!(q.is_empty());
    }

    #[test]
    fn pending_after_is_a_cursor_over_unacked_entries() {
        let mut q = MemQueue::new();
        let ids: Vec<EntryId> = (0..5).map(|i| q.enqueue(Bytes::from(vec![i]))).collect();
        // From the head it matches pending().
        assert_eq!(q.pending_after(None, 10), q.pending(10));
        // Strictly-after semantics: the cursor entry itself is excluded.
        let tail = q.pending_after(Some(ids[2]), 10);
        assert_eq!(
            tail.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![ids[3], ids[4]]
        );
        // Acked entries vanish from the walk; max is respected.
        q.ack(ids[3]);
        assert_eq!(q.pending_after(Some(ids[0]), 10).len(), 3);
        assert_eq!(q.pending_after(Some(ids[0]), 1).len(), 1);
        // A cursor past the end yields nothing.
        assert!(q.pending_after(Some(ids[4]), 10).is_empty());
    }

    #[test]
    fn file_pending_after_survives_reopen() {
        let path = tmpdir().join("cursor.q");
        let _ = std::fs::remove_file(&path);
        let mut q = FileQueue::open(&path).unwrap();
        let a = q.enqueue(Bytes::from_static(b"a"));
        let _b = q.enqueue(Bytes::from_static(b"b"));
        let c = q.enqueue(Bytes::from_static(b"c"));
        drop(q);
        let q2 = FileQueue::open(&path).unwrap();
        let tail = q2.pending_after(Some(a), 10);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[1].0, c);
        assert_eq!(tail[1].1.as_ref(), b"c");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mem_pending_respects_max() {
        let mut q = MemQueue::new();
        for i in 0..5 {
            q.enqueue(Bytes::from(vec![i]));
        }
        assert_eq!(q.pending(3).len(), 3);
        assert_eq!(q.pending(100).len(), 5);
    }

    #[test]
    fn file_queue_roundtrip() {
        let path = tmpdir().join("roundtrip.q");
        let _ = std::fs::remove_file(&path);
        let mut q = FileQueue::open(&path).unwrap();
        let a = q.enqueue(Bytes::from_static(b"hello"));
        let b = q.enqueue(Bytes::from_static(b"world"));
        q.ack(a);
        drop(q);

        // Recovery: only the unacked entry survives.
        let q2 = FileQueue::open(&path).unwrap();
        assert_eq!(q2.len(), 1);
        let pending = q2.pending(10);
        assert_eq!(pending[0].0, b);
        assert_eq!(pending[0].1.as_ref(), b"world");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_queue_ids_continue_after_recovery() {
        let path = tmpdir().join("ids.q");
        let _ = std::fs::remove_file(&path);
        let mut q = FileQueue::open(&path).unwrap();
        let a = q.enqueue(Bytes::from_static(b"1"));
        drop(q);
        let mut q2 = FileQueue::open(&path).unwrap();
        let b = q2.enqueue(Bytes::from_static(b"2"));
        assert!(b > a, "ids must not be reused after recovery");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_queue_survives_torn_tail() {
        let path = tmpdir().join("torn.q");
        let _ = std::fs::remove_file(&path);
        let mut q = FileQueue::open(&path).unwrap();
        q.enqueue(Bytes::from_static(b"good"));
        drop(q);
        // Simulate a crash mid-write: append a truncated record.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[TAG_ENQUEUE, 0, 0]).unwrap();
        }
        let q2 = FileQueue::open(&path).unwrap();
        assert_eq!(q2.len(), 1, "torn tail discarded, good record kept");
        assert_eq!(q2.pending(1)[0].1.as_ref(), b"good");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_queue_truncates_torn_tail_so_later_appends_survive() {
        let path = tmpdir().join("torn-then-append.q");
        let _ = std::fs::remove_file(&path);
        let mut q = FileQueue::open(&path).unwrap();
        q.enqueue(Bytes::from_static(b"first"));
        drop(q);
        // Crash mid-append leaves a partial record at the tail.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[TAG_ENQUEUE, 9, 9, 9, 9]).unwrap();
        }
        // Reopen (must truncate the garbage) and append a new record.
        let mut q2 = FileQueue::open(&path).unwrap();
        assert_eq!(q2.len(), 1);
        q2.enqueue(Bytes::from_static(b"second"));
        drop(q2);
        // The record appended after the torn tail is recoverable.
        let q3 = FileQueue::open(&path).unwrap();
        assert_eq!(q3.len(), 2, "append after torn tail must survive reopen");
        let payloads: Vec<Bytes> = q3.pending(10).into_iter().map(|(_, p)| p).collect();
        assert!(payloads.iter().any(|p| p.as_ref() == b"second"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_queue_compaction_drops_acked_records() {
        let path = tmpdir().join("compact.q");
        let _ = std::fs::remove_file(&path);
        let mut q = FileQueue::open(&path).unwrap();
        let ids: Vec<EntryId> = (0..10)
            .map(|i| q.enqueue(Bytes::from(format!("payload-{i}"))))
            .collect();
        for id in &ids[..9] {
            q.ack(*id);
        }
        let before = std::fs::metadata(&path).unwrap().len();
        assert_eq!(q.file_len(), before);
        q.compact().unwrap();
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(after < before, "compaction shrank {before} → {after}");
        assert_eq!(q.file_len(), after);
        assert_eq!(q.len(), 1);
        // And the compacted file still recovers correctly.
        drop(q);
        let q2 = FileQueue::open(&path).unwrap();
        assert_eq!(q2.len(), 1);
        assert_eq!(q2.pending(1)[0].0, ids[9]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_queue_ids_survive_compaction_of_fully_acked_queue() {
        let path = tmpdir().join("acked-compact.q");
        let _ = std::fs::remove_file(&path);
        let mut q = FileQueue::open(&path).unwrap();
        let ids: Vec<EntryId> = (0..4).map(|i| q.enqueue(Bytes::from(vec![i]))).collect();
        for id in &ids {
            q.ack(*id);
        }
        q.compact().unwrap();
        drop(q);
        // An empty-but-compacted file must not reset the allocator: a
        // fresh enqueue gets an id beyond every id ever handed out.
        let mut q2 = FileQueue::open(&path).unwrap();
        assert!(q2.is_empty());
        let fresh = q2.enqueue(Bytes::from_static(b"new"));
        assert!(
            fresh > ids[3],
            "id {fresh:?} reused after compaction (last was {:?})",
            ids[3]
        );
        std::fs::remove_file(&path).unwrap();
    }

    fn on_disk(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    #[test]
    fn file_queue_compacts_itself_and_knows_its_length() {
        let path = tmpdir().join("auto-compact.q");
        let _ = std::fs::remove_file(&path);
        let mut q = FileQueue::open(&path).unwrap();
        let keep = q.enqueue(Bytes::from_static(b"keep"));
        let mut last = keep;
        for i in 0..10_000 {
            last = q.enqueue(Bytes::from(format!("dead-payload-{i}")));
            q.ack(last);
            if i % 1_000 == 0 {
                assert_eq!(q.file_len(), on_disk(&path), "cycle {i}");
            }
        }
        // ~400 KiB went through; the dead records were reclaimed.
        assert_eq!(q.file_len(), on_disk(&path));
        assert!(q.file_len() < 128 * 1024, "file is {} bytes", q.file_len());
        // Live entry, its id, and the allocator all survive.
        assert_eq!(q.pending(10), vec![(keep, Bytes::from_static(b"keep"))]);
        q.ack(keep);
        let next = q.next_id();
        assert_eq!(next, last.0 + 1);
        drop(q);
        let q2 = FileQueue::open(&path).unwrap();
        assert_eq!(q2.len(), 0);
        assert_eq!(q2.next_id(), next);
        assert_eq!(q2.file_len(), on_disk(&path));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn draining_a_backlog_costs_a_logarithmic_number_of_rewrites() {
        let path = tmpdir().join("backlog.q");
        let _ = std::fs::remove_file(&path);
        let mut q = FileQueue::open(&path).unwrap();
        // A peer was down for 20 000 updates (~2.2 MiB), then drains.
        let ids: Vec<EntryId> = (0..20_000)
            .map(|_| q.enqueue(Bytes::from(vec![7u8; 100])))
            .collect();
        let mut rewrites = 0;
        for id in ids {
            let before = q.file_len();
            q.ack(id);
            rewrites += u32::from(q.file_len() < before);
        }
        // A rewrite per 64 KiB of dead records would be ~40, each
        // copying the whole remaining backlog.
        assert!((1..=8).contains(&rewrites), "{rewrites} rewrites");
        assert!(q.is_empty());
        assert_eq!(q.file_len(), on_disk(&path));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn batch_calls_leave_the_file_byte_identical_to_single_calls() {
        let payloads: Vec<Bytes> = (0..5u8)
            .map(|i| Bytes::from(vec![i; 3 + i as usize]))
            .collect();
        let single = tmpdir().join("single.q");
        let batch = tmpdir().join("batch.q");
        let _ = std::fs::remove_file(&single);
        let _ = std::fs::remove_file(&batch);

        let mut q1 = FileQueue::open(&single).unwrap();
        let ids1: Vec<EntryId> = payloads.iter().map(|p| q1.enqueue(p.clone())).collect();
        let mut qn = FileQueue::open(&batch).unwrap();
        let idsn = qn.enqueue_batch(payloads.clone());
        assert_eq!(idsn, ids1);
        assert_eq!(qn.file_len(), on_disk(&batch));
        assert_eq!(std::fs::read(&batch).unwrap(), std::fs::read(&single).unwrap());

        // Acks likewise; an unknown id in the batch writes nothing.
        for id in &ids1[1..4] {
            assert!(q1.ack(*id));
        }
        let mut acked = ids1[1..4].to_vec();
        acked.insert(1, EntryId(99));
        assert_eq!(qn.ack_batch(&acked), 3);
        assert_eq!(qn.ack_batch(&acked), 0, "a duplicate batch appends nothing");
        assert_eq!(qn.file_len(), on_disk(&batch));
        assert_eq!(std::fs::read(&batch).unwrap(), std::fs::read(&single).unwrap());
        assert_eq!(qn.pending(10), q1.pending(10));
        assert_eq!(qn.next_id(), q1.next_id());

        // The defaults every other queue inherits agree with it.
        let mut mem = MemQueue::new();
        assert_eq!(mem.enqueue_batch(payloads), ids1);
        assert_eq!(mem.ack_batch(&acked), 3);
        assert_eq!(mem.pending(10), q1.pending(10));
        std::fs::remove_file(&single).unwrap();
        std::fs::remove_file(&batch).unwrap();
    }

    #[test]
    fn file_queue_empty_file_is_empty_queue() {
        let path = tmpdir().join("empty.q");
        let _ = std::fs::remove_file(&path);
        let q = FileQueue::open(&path).unwrap();
        assert!(q.is_empty());
        assert_eq!(q.path(), path.as_path());
        std::fs::remove_file(&path).unwrap();
    }
}

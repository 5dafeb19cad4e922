//! Integration: stable queues survive crashes — the paper's assumption
//! that "stable queues … persistently retry message delivery until
//! successful" holds across process restarts, torn writes, and
//! compaction, with MSets as the payloads.

use bytes::Bytes;

use esr::core::{EtId, ObjectId, ObjectOp, Operation, SiteId};
use esr::replica::mset::MSet;
use esr::storage::stable_queue::{FileQueue, MemQueue, StableQueue};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("esr-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A toy MSet wire format for the queue payload (length-free: the queue
/// frames payloads itself).
fn encode(mset: &MSet) -> Bytes {
    let mut out = Vec::new();
    out.extend_from_slice(&mset.et.raw().to_be_bytes());
    out.extend_from_slice(&mset.origin.raw().to_be_bytes());
    for op in &mset.ops {
        out.extend_from_slice(&op.object.raw().to_be_bytes());
        if let Operation::Incr(n) = op.op {
            out.extend_from_slice(&n.to_be_bytes());
        }
    }
    Bytes::from(out)
}

fn decode(b: &Bytes) -> MSet {
    let et = u64::from_be_bytes(b[0..8].try_into().unwrap());
    let origin = u64::from_be_bytes(b[8..16].try_into().unwrap());
    let mut ops = Vec::new();
    let mut i = 16;
    while i + 16 <= b.len() {
        let obj = u64::from_be_bytes(b[i..i + 8].try_into().unwrap());
        let n = i64::from_be_bytes(b[i + 8..i + 16].try_into().unwrap());
        ops.push(ObjectOp::new(ObjectId(obj), Operation::Incr(n)));
        i += 16;
    }
    MSet::new(EtId(et), SiteId(origin), ops)
}

fn sample_mset(et: u64) -> MSet {
    MSet::new(
        EtId(et),
        SiteId(et % 3),
        vec![ObjectOp::new(ObjectId(et % 5), Operation::Incr(et as i64))],
    )
}

#[test]
fn msets_round_trip_through_the_file_queue() {
    let path = tmp("roundtrip-msets.q");
    let _ = std::fs::remove_file(&path);
    let mut q = FileQueue::open(&path).unwrap();
    for et in 1..=5u64 {
        q.enqueue(encode(&sample_mset(et)));
    }
    let pending = q.pending(10);
    assert_eq!(pending.len(), 5);
    for (i, (_, payload)) in pending.iter().enumerate() {
        let decoded = decode(payload);
        assert_eq!(decoded, sample_mset(i as u64 + 1));
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn crash_between_sends_loses_nothing_unacked() {
    let path = tmp("crash.q");
    let _ = std::fs::remove_file(&path);
    // Sender enqueues 10 MSets, delivers (acks) 4, then "crashes".
    {
        let mut q = FileQueue::open(&path).unwrap();
        let ids: Vec<_> = (1..=10u64).map(|et| q.enqueue(encode(&sample_mset(et)))).collect();
        for id in &ids[..4] {
            assert!(q.ack(*id));
        }
        // Dropped without further acks = crash.
    }
    // Restart: exactly the 6 unacked MSets are retried.
    let q = FileQueue::open(&path).unwrap();
    let pending = q.pending(100);
    assert_eq!(pending.len(), 6);
    let ets: Vec<u64> = pending.iter().map(|(_, p)| decode(p).et.raw()).collect();
    assert_eq!(ets, vec![5, 6, 7, 8, 9, 10]);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn repeated_crash_recovery_cycles_are_stable() {
    let path = tmp("cycles.q");
    let _ = std::fs::remove_file(&path);
    let mut expected_pending = 0usize;
    for round in 0..5u64 {
        let mut q = FileQueue::open(&path).unwrap();
        assert_eq!(q.pending(1000).len(), expected_pending, "round {round}");
        // Enqueue 3, ack 2 (one from the backlog if available).
        for i in 0..3 {
            q.enqueue(encode(&sample_mset(round * 10 + i)));
        }
        let pending = q.pending(2);
        for (id, _) in pending {
            q.ack(id);
        }
        expected_pending = expected_pending + 3 - 2;
    }
    let q = FileQueue::open(&path).unwrap();
    assert_eq!(q.pending(1000).len(), expected_pending);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn compaction_preserves_recovery_semantics() {
    let path = tmp("compact-it.q");
    let _ = std::fs::remove_file(&path);
    let keep: Vec<u64> = vec![3, 7, 9];
    {
        let mut q = FileQueue::open(&path).unwrap();
        let ids: Vec<_> = (1..=10u64).map(|et| (et, q.enqueue(encode(&sample_mset(et))))).collect();
        for (et, id) in &ids {
            if !keep.contains(et) {
                q.ack(*id);
            }
        }
        q.compact().unwrap();
    }
    let q = FileQueue::open(&path).unwrap();
    let ets: Vec<u64> = q.pending(100).iter().map(|(_, p)| decode(p).et.raw()).collect();
    assert_eq!(ets, keep);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn mem_and_file_queues_share_semantics() {
    let path = tmp("parity.q");
    let _ = std::fs::remove_file(&path);
    let mut mem = MemQueue::new();
    let mut file = FileQueue::open(&path).unwrap();
    let payloads: Vec<Bytes> = (0..6u64).map(|i| encode(&sample_mset(i))).collect();
    let mem_ids: Vec<_> = payloads.iter().map(|p| mem.enqueue(p.clone())).collect();
    let file_ids: Vec<_> = payloads.iter().map(|p| file.enqueue(p.clone())).collect();
    // Ack the same subset in both.
    for i in [0usize, 2, 4] {
        assert!(mem.ack(mem_ids[i]));
        assert!(file.ack(file_ids[i]));
    }
    let mem_pending: Vec<Bytes> = mem.pending(10).into_iter().map(|(_, p)| p).collect();
    let file_pending: Vec<Bytes> = file.pending(10).into_iter().map(|(_, p)| p).collect();
    assert_eq!(mem_pending, file_pending);
    assert_eq!(mem.len(), file.len());
    std::fs::remove_file(&path).unwrap();
}

// ---------------------------------------------------------------------
// Crash-point tests: the file is cut at an arbitrary byte offset — the
// moment the power went out mid-write — and reopen must recover exactly
// the state of every record completed before the cut, never panic, and
// keep accepting appends afterwards.
// ---------------------------------------------------------------------

mod crash_points {
    use super::*;
    use proptest::prelude::*;

    use esr::storage::stable_queue::EntryId;

    /// What the log holds after each fully-written record, so a cut at
    /// any offset maps to an exact expected recovery state.
    struct LogModel {
        /// `(end_offset, event)` per record, in append order.
        records: Vec<(u64, Event)>,
        len: u64,
    }

    #[derive(Clone)]
    enum Event {
        Enqueued(EntryId, Bytes),
        Acked(EntryId),
    }

    impl LogModel {
        fn new() -> Self {
            Self {
                records: Vec::new(),
                len: 0,
            }
        }
        fn push_enqueue(&mut self, id: EntryId, payload: Bytes) {
            // Record framing: tag (1) + id (8) + len (4) + payload.
            self.len += 13 + payload.len() as u64;
            self.records.push((self.len, Event::Enqueued(id, payload)));
        }
        fn push_ack(&mut self, id: EntryId) {
            self.len += 9; // tag + id
            self.records.push((self.len, Event::Acked(id)));
        }
        /// The pending map a replay of every record ending at or before
        /// `cut` produces.
        fn expected_at(&self, cut: u64) -> std::collections::BTreeMap<EntryId, Bytes> {
            let mut live = std::collections::BTreeMap::new();
            for (end, ev) in &self.records {
                if *end > cut {
                    break;
                }
                match ev {
                    Event::Enqueued(id, p) => {
                        live.insert(*id, p.clone());
                    }
                    Event::Acked(id) => {
                        live.remove(id);
                    }
                }
            }
            live
        }
    }

    fn unique_path(tag: &str) -> std::path::PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let k = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        tmp(&format!("cut-{tag}-{k}.q"))
    }

    /// Builds a queue of `payload_sizes.len()` entries, acking those
    /// selected by `ack_mask`, and returns the model mirror.
    fn build(path: &std::path::Path, payload_sizes: &[usize], ack_mask: u32) -> LogModel {
        let _ = std::fs::remove_file(path);
        let mut q = FileQueue::open(path).unwrap();
        let mut model = LogModel::new();
        let mut ids = Vec::new();
        for (i, size) in payload_sizes.iter().enumerate() {
            let payload = Bytes::from(vec![i as u8; *size]);
            let id = q.enqueue(payload.clone());
            model.push_enqueue(id, payload);
            ids.push(id);
        }
        for (i, id) in ids.iter().enumerate() {
            if ack_mask & (1 << i) != 0 {
                assert!(q.ack(*id));
                model.push_ack(*id);
            }
        }
        model
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Cut anywhere: reopen recovers exactly the complete-record
        /// prefix — no panic, no phantom entries, no lost completed
        /// records.
        #[test]
        fn truncation_at_any_offset_recovers_the_valid_prefix(
            payload_sizes in prop::collection::vec(0usize..48, 1..7),
            ack_mask in 0u32..128,
            cut_frac in 0u64..10_000,
        ) {
            let path = unique_path("prefix");
            let model = build(&path, &payload_sizes, ack_mask);
            prop_assert_eq!(std::fs::metadata(&path).unwrap().len(), model.len);
            let cut = cut_frac % (model.len + 1);
            let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(cut).unwrap();
            drop(f);
            let q = FileQueue::open(&path).unwrap(); // must never panic
            let recovered: std::collections::BTreeMap<_, _> =
                q.pending(usize::MAX).into_iter().collect();
            prop_assert_eq!(recovered, model.expected_at(cut));
            // The torn tail was truncated away: the file now ends at the
            // last complete record, so nothing hides behind garbage.
            let end = model
                .records
                .iter()
                .map(|(e, _)| *e)
                .take_while(|e| *e <= cut)
                .last()
                .unwrap_or(0);
            prop_assert_eq!(std::fs::metadata(&path).unwrap().len(), end);
            std::fs::remove_file(&path).ok();
        }

        /// Appends after a torn-tail reopen are durable: a second reopen
        /// sees the recovered prefix plus everything appended since.
        #[test]
        fn reopen_after_partial_append_keeps_later_appends(
            payload_sizes in prop::collection::vec(0usize..48, 1..7),
            ack_mask in 0u32..128,
            cut_frac in 0u64..10_000,
            extra in prop::collection::vec(0usize..48, 1..4),
        ) {
            let path = unique_path("append");
            let model = build(&path, &payload_sizes, ack_mask);
            let cut = cut_frac % (model.len + 1);
            let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(cut).unwrap();
            drop(f);
            let mut expected = model.expected_at(cut);
            {
                let mut q = FileQueue::open(&path).unwrap();
                for (i, size) in extra.iter().enumerate() {
                    let payload = Bytes::from(vec![0xA0 + i as u8; *size]);
                    let id = q.enqueue(payload.clone());
                    expected.insert(id, payload);
                }
            } // crash again, this time with a clean tail
            let q = FileQueue::open(&path).unwrap();
            let recovered: std::collections::BTreeMap<_, _> =
                q.pending(usize::MAX).into_iter().collect();
            prop_assert_eq!(recovered, expected);
            std::fs::remove_file(&path).ok();
        }
    }

    /// An ack record lost to the crash (written but not persisted — here,
    /// truncated away) resurrects its entry: the queue re-delivers, which
    /// is exactly the at-least-once contract. The entry must reappear
    /// rather than vanish.
    #[test]
    fn ack_not_persisted_means_redelivery_not_loss() {
        let path = unique_path("ack");
        let _ = std::fs::remove_file(&path);
        let mut ids = Vec::new();
        let len_before_ack;
        {
            let mut q = FileQueue::open(&path).unwrap();
            for et in 1..=3u64 {
                ids.push(q.enqueue(encode(&sample_mset(et))));
            }
            len_before_ack = std::fs::metadata(&path).unwrap().len();
            assert!(q.ack(ids[1]));
        }
        // Crash with the ack record torn off the tail.
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len_before_ack).unwrap();
        drop(f);
        let q = FileQueue::open(&path).unwrap();
        let pending: Vec<EntryId> = q.pending(10).into_iter().map(|(id, _)| id).collect();
        assert_eq!(pending, ids, "the un-persisted ack must be forgotten");
        std::fs::remove_file(&path).ok();
    }

    /// One batched append is still a run of whole records: a cut inside
    /// its third record keeps the first two, drops the rest, and the
    /// allocator continues after the survivors.
    #[test]
    fn batched_append_cut_mid_record_recovers_the_whole_record_prefix() {
        let path = unique_path("batch");
        let _ = std::fs::remove_file(&path);
        let payloads: Vec<Bytes> = (1..=4u64).map(|et| encode(&sample_mset(et))).collect();
        let head;
        let ids;
        {
            let mut q = FileQueue::open(&path).unwrap();
            head = q.enqueue(encode(&sample_mset(9)));
            ids = q.enqueue_batch(payloads.clone());
        }
        let third_starts: u64 = 13 + encode(&sample_mset(9)).len() as u64
            + payloads[..2].iter().map(|p| 13 + p.len() as u64).sum::<u64>();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(third_starts + 13 + payloads[2].len() as u64 / 2).unwrap();
        drop(f);
        let mut q = FileQueue::open(&path).unwrap();
        let pending: Vec<EntryId> = q.pending(10).into_iter().map(|(id, _)| id).collect();
        assert_eq!(pending, vec![head, ids[0], ids[1]]);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), third_starts);
        // The lost ids were never acknowledged to anyone, so they are
        // free again — but nothing that survived is reissued.
        assert_eq!(q.enqueue_batch(payloads[2..].to_vec()), vec![ids[2], ids[3]]);
        drop(q);
        let q = FileQueue::open(&path).unwrap();
        let ets: Vec<u64> = q.pending(10).iter().map(|(_, p)| decode(p).et.raw()).collect();
        assert_eq!(ets, vec![9, 1, 2, 3, 4]);
        std::fs::remove_file(&path).ok();
    }

    /// A cut in the middle of an enqueue record discards that record
    /// entirely — half an MSet never reaches a replica.
    #[test]
    fn torn_enqueue_record_is_dropped_whole() {
        let path = unique_path("torn");
        let _ = std::fs::remove_file(&path);
        let first;
        let boundary;
        {
            let mut q = FileQueue::open(&path).unwrap();
            first = q.enqueue(encode(&sample_mset(1)));
            boundary = std::fs::metadata(&path).unwrap().len();
            q.enqueue(encode(&sample_mset(2)));
        }
        let full = std::fs::metadata(&path).unwrap().len();
        // Cut strictly inside the second record.
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(boundary + (full - boundary) / 2).unwrap();
        drop(f);
        let q = FileQueue::open(&path).unwrap();
        let pending = q.pending(10);
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].0, first);
        assert_eq!(decode(&pending[0].1), sample_mset(1));
        std::fs::remove_file(&path).ok();
    }
}

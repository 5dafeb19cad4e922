//! The journal's file is its only copy, and its format is the file
//! queue's.
//!
//! `ApplyJournal` keeps no record in memory: its log holds the live id
//! range and a few offsets, and reads every payload back from the file.
//! These tests pin that (a record corrupted on disk behind the open
//! journal's back is what `records()` reports) and pin the file format
//! byte for byte against `FileQueue`, the queue the journal was built on
//! before it had a log of its own: fed the same records and the same
//! retirements, both write identical files, through the same
//! compactions, and each opens the other's file to the same live
//! records.

use std::io::ErrorKind;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;

use esr::core::{ClientId, EtId, ObjectId, ObjectOp, Operation, SiteId};
use esr::replica::mset::MSet;
use esr::replica::wire::{decode_record, encode_record};
use esr::runtime::ctrl::Record;
use esr::runtime::recovery::ApplyJournal;
use esr::storage::stable_queue::{EntryId, FileQueue, StableQueue};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("esr-jfmt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn incr(et: u64) -> MSet {
    MSet::new(
        EtId(et),
        SiteId(et % 3),
        vec![ObjectOp::new(ObjectId(et % 5), Operation::Incr(1))],
    )
}

fn counters(j: &ApplyJournal) -> (u64, u64, Option<u64>) {
    (j.live_entries(), j.file_bytes(), j.last_id())
}

/// The counters a fresh open of `path` computes.
fn reopened(path: &PathBuf) -> (u64, u64, Option<u64>) {
    counters(&ApplyJournal::open(path).unwrap())
}

#[test]
fn a_record_corrupted_on_disk_is_what_records_reports() {
    let path = tmp("only-copy.journal");
    let mut j = ApplyJournal::open(&path).unwrap();
    // Record `k` starts where the file ended before it was appended.
    let k = 3u64;
    let mut at = 0;
    for et in 0..6 {
        if et == k {
            at = j.file_bytes();
        }
        j.record(&incr(et));
    }
    assert_eq!(j.records().unwrap().len(), 6);
    // Overwrite the tag byte of record k's payload through a separate
    // handle; the journal is not reopened.
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.write_all_at(&[0xEE], at + 13).unwrap();
    drop(f);
    let err = j.records().unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(
        err.to_string().contains(&format!("journal record {k} ")),
        "{err}"
    );
}

#[test]
fn counters_equal_what_a_reopen_computes() {
    let path = tmp("counters.journal");
    let mut j = ApplyJournal::open(&path).unwrap();
    assert_eq!(counters(&j), reopened(&path));
    let records: Vec<Record> = (0..2_000).map(|et| Record::MSet(incr(et))).collect();
    for commit in records.chunks(64) {
        j.append(commit);
    }
    assert_eq!(counters(&j), reopened(&path), "after appends");
    let before = j.file_bytes();
    assert_eq!(j.retire_through(99), 100);
    assert!(
        j.file_bytes() > before,
        "a small retirement only appends acks"
    );
    assert_eq!(counters(&j), reopened(&path), "after a retirement");
    assert_eq!(j.retire_through(1_989), 1_890);
    assert!(j.file_bytes() < before / 10, "a large retirement compacts");
    assert_eq!(counters(&j), reopened(&path), "after a compaction");
    assert_eq!(counters(&j).0, 10);
    j.append(&records[..1]);
    assert_eq!(
        counters(&j),
        reopened(&path),
        "after appending to a compacted file"
    );
    assert_eq!(j.retire_through(u64::MAX), 11);
    assert_eq!(counters(&j), reopened(&path), "after retiring everything");
    assert_eq!(j.last_id(), Some(2_000));
}

/// A small deterministic generator (splitmix64), so the sequence is
/// seeded without a dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn record(rng: &mut Rng, et: u64) -> Record {
    match rng.below(8) {
        0 => Record::Decision {
            et: EtId(et),
            commit: rng.below(2) == 0,
        },
        1 => Record::View(rng.below(100)),
        2 => Record::Cursors((0..3).map(|_| rng.below(3).checked_sub(1)).collect()),
        n => {
            let mset = incr(et);
            Record::MSet(if n == 7 {
                mset.from_client(ClientId(et % 4), et)
            } else {
                mset
            })
        }
    }
}

#[test]
fn the_journal_writes_the_file_queues_bytes() {
    for seed in [1, 2, 3] {
        let mut rng = Rng(seed);
        let (jpath, qpath) = (
            tmp(&format!("seed{seed}.journal")),
            tmp(&format!("seed{seed}.q")),
        );
        let mut journal = ApplyJournal::open(&jpath).unwrap();
        let mut queue = FileQueue::open(&qpath).unwrap();
        let mut live: Vec<(u64, Record)> = Vec::new();
        let (mut et, mut compactions) = (0, 0);
        for step in 0..120 {
            let before = journal.file_bytes();
            if rng.below(4) == 0 {
                // Retire a prefix: sometimes nothing, sometimes all.
                let last = journal.last_id().unwrap_or(0);
                let through = last.saturating_sub(rng.below(200));
                let ids: Vec<EntryId> = queue
                    .pending(usize::MAX)
                    .into_iter()
                    .map(|(id, _)| id)
                    .filter(|id| id.0 <= through)
                    .collect();
                assert_eq!(
                    journal.retire_through(through),
                    queue.ack_batch(&ids) as u64
                );
                live.retain(|(id, _)| *id > through);
                compactions += u32::from(journal.file_bytes() < before);
            } else {
                let commit: Vec<Record> = (0..1 + rng.below(64))
                    .map(|_| {
                        et += 1;
                        record(&mut rng, et)
                    })
                    .collect();
                let first = journal.last_id().map_or(0, |id| id + 1);
                let bytes = journal.append(&commit);
                let ids = queue.enqueue_batch(commit.iter().map(encode_record).collect());
                assert_eq!(ids.first(), Some(&EntryId(first)));
                assert_eq!(bytes, journal.file_bytes() - before);
                live.extend((first..).zip(commit));
            }
            let (jbytes, qbytes) = (
                std::fs::read(&jpath).unwrap(),
                std::fs::read(&qpath).unwrap(),
            );
            assert!(
                jbytes == qbytes,
                "seed {seed} step {step}: the files differ"
            );
            assert_eq!(journal.file_bytes(), queue.file_len());
            assert_eq!(journal.live_entries(), queue.len() as u64);
            assert_eq!(journal.last_id(), queue.next_id().checked_sub(1));

            // Each opens the other's file to the same live records.
            let from_queue_file = ApplyJournal::open(&qpath).unwrap().records().unwrap();
            let from_journal_file: Vec<(u64, Record)> = FileQueue::open(&jpath)
                .unwrap()
                .pending(usize::MAX)
                .into_iter()
                .map(|(id, payload)| (id.0, decode_record(&payload).unwrap()))
                .collect();
            assert_eq!(from_queue_file, live, "seed {seed} step {step}");
            assert_eq!(from_journal_file, live, "seed {seed} step {step}");
        }
        assert!(
            compactions >= 2,
            "seed {seed}: {compactions} compactions exercised"
        );
    }
}

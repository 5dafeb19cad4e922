//! Stable-queue throughput: the in-memory queue vs the crash-recoverable
//! file-backed queue (enqueue+ack cycles, recovery cost after a crash),
//! and the journal append every accepted MSet costs esrd.

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use esr_core::ids::{EtId, ObjectId, SiteId};
use esr_core::op::{ObjectOp, Operation};
use esr_replica::ctrl::Record;
use esr_replica::mset::MSet;
use esr_runtime::recovery::ApplyJournal;
use esr_storage::stable_queue::{FileQueue, MemQueue, StableQueue};

const BATCH: usize = 256;

fn payload(i: usize) -> Bytes {
    Bytes::from(format!("mset-payload-{i:06}"))
}

fn bench_queues(c: &mut Criterion) {
    let mut group = c.benchmark_group("stable_queue");
    group.throughput(criterion::Throughput::Elements(BATCH as u64));

    group.bench_function(BenchmarkId::new("enqueue_ack", "mem"), |b| {
        b.iter(|| {
            let mut q = MemQueue::new();
            let ids: Vec<_> = (0..BATCH).map(|i| q.enqueue(payload(i))).collect();
            for id in ids {
                black_box(q.ack(id));
            }
        })
    });

    group.bench_function(BenchmarkId::new("enqueue_ack", "file"), |b| {
        let path = std::env::temp_dir().join(format!("esr-bench-{}.q", std::process::id()));
        b.iter(|| {
            let _ = std::fs::remove_file(&path);
            let mut q = FileQueue::open(&path).expect("open");
            let ids: Vec<_> = (0..BATCH).map(|i| q.enqueue(payload(i))).collect();
            for id in ids {
                black_box(q.ack(id));
            }
        });
        let _ = std::fs::remove_file(&path);
    });

    group.bench_function(BenchmarkId::new("recovery", "file"), |b| {
        // Pre-build a log with half the entries acked, then measure the
        // cost of crash recovery (reopen + replay).
        let path = std::env::temp_dir().join(format!("esr-bench-rec-{}.q", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut q = FileQueue::open(&path).expect("open");
            let ids: Vec<_> = (0..BATCH).map(|i| q.enqueue(payload(i))).collect();
            for id in ids.iter().step_by(2) {
                q.ack(*id);
            }
        }
        b.iter(|| {
            let q = FileQueue::open(&path).expect("reopen");
            black_box(q.len())
        });
        let _ = std::fs::remove_file(&path);
    });

    group.finish();
}

/// Records per journal commit: a reactor cycle's worth of accepted MSets.
const COMMIT: usize = 64;
/// Live records already in the journal: a site that has run without a
/// checkpoint for a while, as esrd does under the benchmark.
const LIVE: u64 = 50_000;

fn bench_journal(c: &mut Criterion) {
    let mut group = c.benchmark_group("journal");
    group.throughput(criterion::Throughput::Elements(COMMIT as u64));
    let commit: Vec<Record> = (0..COMMIT as u64)
        .map(|i| {
            let op = ObjectOp::new(ObjectId(i % 64), Operation::Incr(1));
            Record::MSet(MSet::new(EtId(i), SiteId(i % 3), vec![op]))
        })
        .collect();
    group.bench_function(BenchmarkId::new("journal_append", "64x1incr"), |b| {
        // Each sample starts from a fresh journal holding LIVE records.
        let path = std::env::temp_dir().join(format!("esr-bench-journal-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut journal = ApplyJournal::open(&path).expect("open");
        for _ in 0..LIVE / COMMIT as u64 {
            journal.append(&commit);
        }
        b.iter(|| journal.append(&commit));
        drop(journal);
        let _ = std::fs::remove_file(&path);
    });
    group.finish();
}

criterion_group!(benches, bench_queues, bench_journal);
criterion_main!(benches);

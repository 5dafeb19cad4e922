//! End-to-end crash/resend: a client persists outgoing update MSets in a
//! file-backed stable queue, "crashes" mid-replication, restarts, and
//! retries the unacknowledged tail — the replicas converge to exactly
//! the full update stream, duplicates and all. This is the paper's §2.2
//! assumption ("stable queues … persistently retry message delivery
//! until successful") demonstrated with real files and real site state
//! machines.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use esr::core::{EtId, ObjectId, ObjectOp, Operation, SiteId, Value};
use esr::replica::commu::CommuSite;
use esr::replica::mset::MSet;
use esr::replica::site::ReplicaSite;
use esr::storage::stable_queue::{FileQueue, StableQueue};

fn encode(mset: &MSet) -> Bytes {
    let mut b = BytesMut::new();
    b.put_u64(mset.et.raw());
    b.put_u64(mset.origin.raw());
    b.put_u32(mset.ops.len() as u32);
    for op in &mset.ops {
        b.put_u64(op.object.raw());
        match op.op {
            Operation::Incr(n) => {
                b.put_u8(1);
                b.put_i64(n);
            }
            Operation::Decr(n) => {
                b.put_u8(2);
                b.put_i64(n);
            }
            _ => panic!("test codec supports Incr/Decr only"),
        }
    }
    b.freeze()
}

fn decode(mut b: Bytes) -> MSet {
    let et = EtId(b.get_u64());
    let origin = SiteId(b.get_u64());
    let n = b.get_u32();
    let mut ops = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let obj = ObjectId(b.get_u64());
        let tag = b.get_u8();
        let v = b.get_i64();
        let op = match tag {
            1 => Operation::Incr(v),
            2 => Operation::Decr(v),
            _ => unreachable!(),
        };
        ops.push(ObjectOp::new(obj, op));
    }
    MSet::new(et, origin, ops)
}

/// Delivers up to `limit` pending entries from the queue to the sites,
/// acking each delivered entry. Returns entries delivered.
fn pump(queue: &mut FileQueue, sites: &mut [CommuSite], limit: usize) -> usize {
    let batch = queue.pending(limit);
    for (id, payload) in &batch {
        let mset = decode(payload.clone());
        for site in sites.iter_mut() {
            site.deliver(&mset, &mut Vec::new());
        }
        assert!(queue.ack(*id));
    }
    batch.len()
}

#[test]
fn replication_survives_sender_crash_and_restart() {
    let path = std::env::temp_dir().join(format!("esr-crash-resend-{}.q", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let mut sites: Vec<CommuSite> = (0..3).map(|i| CommuSite::new(SiteId(i))).collect();
    let account = ObjectId(0);

    // Phase 1: the client enqueues 10 updates durably, but only 4 get
    // pumped to the replicas before the crash.
    {
        let mut queue = FileQueue::open(&path).expect("open");
        for i in 1..=10u64 {
            let mset = MSet::new(
                EtId(i),
                SiteId(0),
                vec![ObjectOp::new(account, Operation::Incr(i as i64))],
            );
            queue.enqueue(encode(&mset));
        }
        assert_eq!(pump(&mut queue, &mut sites, 4), 4);
        // Crash: queue dropped without acking the remaining 6.
    }
    let partial: i64 = (1..=4).sum();
    assert_eq!(sites[0].snapshot()[&account], Value::Int(partial));

    // Phase 2: restart. Recovery finds exactly the unacked 6 and the
    // retry loop drains them. One entry is (redundantly) delivered twice
    // to prove idempotence end-to-end.
    {
        let mut queue = FileQueue::open(&path).expect("reopen");
        assert_eq!(queue.len(), 6, "exactly the unsent tail survives");
        // Duplicate delivery of the first pending entry before acking:
        let (first_id, payload) = queue.pending(1).pop().expect("pending");
        let dup = decode(payload);
        for site in sites.iter_mut() {
            site.deliver(&dup, &mut Vec::new());
        }
        let _ = first_id; // not acked: the pump will deliver it again
        while pump(&mut queue, &mut sites, 2) > 0 {}
        assert!(queue.is_empty(), "everything delivered and acked");
    }

    // All replicas hold the full sum, exactly once per update.
    let total: i64 = (1..=10).sum();
    for (i, site) in sites.iter().enumerate() {
        assert_eq!(
            site.snapshot()[&account],
            Value::Int(total),
            "site {i} diverged"
        );
        let applied: Vec<u64> = site.applies().iter().map(|(et, _)| et.raw()).collect();
        assert_eq!(applied, (1..=10).collect::<Vec<_>>(), "site {i} applied other ETs");
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn interleaved_crashes_of_two_senders_converge() {
    let dir = std::env::temp_dir();
    let p0 = dir.join(format!("esr-crash-a-{}.q", std::process::id()));
    let p1 = dir.join(format!("esr-crash-b-{}.q", std::process::id()));
    let _ = std::fs::remove_file(&p0);
    let _ = std::fs::remove_file(&p1);

    let mut sites: Vec<CommuSite> = (0..2).map(|i| CommuSite::new(SiteId(i))).collect();
    let obj = ObjectId(7);

    // Sender A enqueues evens, sender B odds; both crash once mid-way.
    for (path, base) in [(&p0, 0u64), (&p1, 100u64)] {
        let mut q = FileQueue::open(path).expect("open");
        for i in 1..=6u64 {
            let mset = MSet::new(
                EtId(base + i),
                SiteId(0),
                vec![ObjectOp::new(obj, Operation::Incr(1))],
            );
            q.enqueue(encode(&mset));
        }
        pump(&mut q, &mut sites, 3);
        // crash (drop)
    }
    // Both recover and drain fully.
    for path in [&p0, &p1] {
        let mut q = FileQueue::open(path).expect("reopen");
        while pump(&mut q, &mut sites, 10) > 0 {}
        assert!(q.is_empty());
    }
    for site in &sites {
        assert_eq!(site.snapshot()[&obj], Value::Int(12));
    }
    std::fs::remove_file(&p0).unwrap();
    std::fs::remove_file(&p1).unwrap();
}

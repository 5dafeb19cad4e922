//! MSet apply-path throughput for each replica control method.
//!
//! Measures the per-site cost of processing one delivered update MSet:
//! ORDUP's hold-back bookkeeping vs COMMU's immediate apply vs RITU's
//! LWW arbitration vs RITU-MV's version install vs COMPE's before-image
//! logging. This is the "MSet processing" step of §2.4 in isolation.
//!
//! Every case feeds [`ReplicaSite::deliver`] one MSet at a time — the
//! method's one apply rule, the path every executor runs — lending it
//! one list of applies, emptied before each MSet, as the control core
//! does. ORDUP is
//! measured twice: in sequence order (the dense hot path) and fully
//! reversed (everything parked until the first MSet arrives). RITU-MV
//! is measured twice too: with the VTNC never advancing (every version
//! stays reachable) and in the shape esrd runs `ritumv-wide16` — uniform
//! writes over a wide keyspace, the VTNC trailing the installs — where
//! each install prunes its chain.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use esr_core::ids::{ClientId, EtId, ObjectId, SeqNo, SiteId, VersionTs};
use esr_core::op::{ObjectOp, Operation};
use esr_core::value::Value;
use esr_replica::commu::CommuSite;
use esr_replica::compe::CompeSite;
use esr_replica::mset::MSet;
use esr_replica::ordup::OrdupSite;
use esr_replica::ritu::{RituMvSite, RituOverwriteSite};
use esr_replica::site::ReplicaSite;

const N: u64 = 16_384;
/// Operations per update MSet — a multi-object update ET, the shape §2.2
/// assumes (an MSet is a *set* of replica maintenance operations).
const OPS_PER_MSET: u64 = 16;
/// Each WINDOW of consecutive update ETs works over its own REGION of
/// the keyspace — the temporal locality a shifting hot set produces. The
/// store grows to N/WINDOW × REGION objects (16 K here, past
/// cache-resident size), and every object is written
/// WINDOW × OPS_PER_MSET / REGION ≈ 16 times while its window lasts.
const WINDOW: u64 = 2048;
const REGION: u64 = 2048;

/// The `RITU-mv-vtnc` keyspace, written uniformly.
const WIDE: u64 = 65_536;
/// How many MSets the VTNC trails the installs by in `RITU-mv-vtnc`.
const VTNC_LAG: u64 = 64;

fn object_for(i: u64, j: u64) -> ObjectId {
    // Fibonacci-hash scramble: objects within a window are drawn
    // pseudo-randomly from its REGION (an update ET writes scattered
    // keys, not a consecutive range), deterministically across runs.
    let window = i / WINDOW;
    let k = (i * OPS_PER_MSET + j).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ObjectId(window * REGION + (k >> 32) % REGION)
}

fn inc_msets() -> Vec<MSet> {
    (0..N)
        .map(|i| {
            let ops = (0..OPS_PER_MSET)
                .map(|j| ObjectOp::new(object_for(i, j), Operation::Incr(1)))
                .collect();
            MSet::new(EtId(i), SiteId(1), ops)
        })
        .collect()
}

fn tw_msets() -> Vec<MSet> {
    tw_msets_over(object_for)
}

fn wide_tw_msets() -> Vec<MSet> {
    tw_msets_over(|i, j| {
        let k = (i * OPS_PER_MSET + j).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ObjectId((k >> 32) % WIDE)
    })
}

/// MSet `i` writes version `i + 1` to `object(i, j)` for each op `j`.
fn tw_msets_over(object: impl Fn(u64, u64) -> ObjectId) -> Vec<MSet> {
    (0..N)
        .map(|i| {
            let ops = (0..OPS_PER_MSET)
                .map(|j| {
                    ObjectOp::new(
                        object(i, j),
                        Operation::TimestampedWrite(
                            VersionTs::new(i + 1, ClientId(0)),
                            Value::Int(i as i64),
                        ),
                    )
                })
                .collect();
            MSet::new(EtId(i), SiteId(1), ops)
        })
        .collect()
}

fn bench_apply(c: &mut Criterion) {
    let mut group = c.benchmark_group("apply_path");
    group.throughput(criterion::Throughput::Elements(N * OPS_PER_MSET));

    group.bench_function(BenchmarkId::new("deliver", "ORDUP-inorder"), |b| {
        let msets: Vec<MSet> = inc_msets()
            .into_iter()
            .enumerate()
            .map(|(i, m)| m.sequenced(SeqNo(i as u64)))
            .collect();
        b.iter(|| {
            let mut s = OrdupSite::new(SiteId(0));
            let mut applied = Vec::new();
            for m in &msets {
                applied.clear();
                s.deliver(black_box(m), &mut applied);
            }
            black_box(s.has_applied(EtId(N - 1)))
        })
    });

    group.bench_function(BenchmarkId::new("deliver", "ORDUP-reversed"), |b| {
        // Worst case: everything held back until the first arrives.
        let mut msets: Vec<MSet> = inc_msets()
            .into_iter()
            .enumerate()
            .map(|(i, m)| m.sequenced(SeqNo(i as u64)))
            .collect();
        msets.reverse();
        b.iter(|| {
            let mut s = OrdupSite::new(SiteId(0));
            let mut applied = Vec::new();
            for m in &msets {
                applied.clear();
                s.deliver(black_box(m), &mut applied);
            }
            black_box(s.has_applied(EtId(N - 1)))
        })
    });

    group.bench_function(BenchmarkId::new("deliver", "COMMU"), |b| {
        let msets = inc_msets();
        b.iter(|| {
            let mut s = CommuSite::new(SiteId(0));
            let mut applied = Vec::new();
            for m in &msets {
                applied.clear();
                s.deliver(black_box(m), &mut applied);
            }
            black_box(s.has_applied(EtId(N - 1)))
        })
    });

    group.bench_function(BenchmarkId::new("deliver", "RITU-lww"), |b| {
        let msets = tw_msets();
        b.iter(|| {
            let mut s = RituOverwriteSite::new(SiteId(0));
            let mut applied = Vec::new();
            for m in &msets {
                applied.clear();
                s.deliver(black_box(m), &mut applied);
            }
            black_box(s.has_applied(EtId(N - 1)))
        })
    });

    group.bench_function(BenchmarkId::new("deliver", "RITU-mv"), |b| {
        let msets = tw_msets();
        b.iter(|| {
            let mut s = RituMvSite::new(SiteId(0));
            let mut applied = Vec::new();
            for m in &msets {
                applied.clear();
                s.deliver(black_box(m), &mut applied);
            }
            black_box(s.has_applied(EtId(N - 1)))
        })
    });

    group.bench_function(BenchmarkId::new("deliver", "RITU-mv-vtnc"), |b| {
        let msets = wide_tw_msets();
        b.iter(|| {
            let mut s = RituMvSite::new(SiteId(0));
            let mut applied = Vec::new();
            for (i, m) in (1u64..).zip(&msets) {
                applied.clear();
                s.deliver(black_box(m), &mut applied);
                if let Some(stable) = i.checked_sub(VTNC_LAG) {
                    s.advance_vtnc(VersionTs::new(stable, ClientId(0)));
                }
            }
            black_box(s.has_applied(EtId(N - 1)))
        })
    });

    group.bench_function(BenchmarkId::new("deliver", "COMPE"), |b| {
        let msets = inc_msets();
        b.iter(|| {
            let mut s = CompeSite::new(SiteId(0));
            let mut applied = Vec::new();
            for m in &msets {
                applied.clear();
                s.deliver(black_box(m), &mut applied);
            }
            // Commit everything so the log drains like a healthy run.
            for i in 0..N {
                s.commit(EtId(i));
            }
            black_box(s.has_applied(EtId(N - 1)))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_apply);
criterion_main!(benches);

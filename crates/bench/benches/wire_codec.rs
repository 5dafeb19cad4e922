//! Wire codec throughput: MSet encode/decode and the framed RPC
//! protocol on top of it. These are the per-message CPU costs every
//! propagation pays on the TCP transport, so they bound the daemon's
//! link throughput. `encode_frame` builds a fresh buffer per frame;
//! `encode_frame_into` encodes the same frames into one reused buffer,
//! the way the daemon does.

use bytes::{Bytes, BytesMut};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use esr_core::ids::{ClientId, EtId, ObjectId, SeqNo, SiteId, VersionTs};
use esr_core::op::{ObjectOp, Operation};
use esr_core::value::Value;
use esr_replica::mset::MSet;
use esr_replica::wire::{
    decode_frame, decode_mset, encode_frame, encode_frame_into, encode_mset, Frame,
};

const BATCH: usize = 256;

/// A small counter update: the common case on the COMMU path.
fn small_mset(i: u64) -> MSet {
    MSet::new(
        EtId(i + 1),
        SiteId(i % 3),
        vec![
            ObjectOp::new(ObjectId(i % 8), Operation::Incr(i as i64 + 1)),
            ObjectOp::new(ObjectId(8), Operation::Incr(1)),
        ],
    )
    .sequenced(SeqNo(i))
}

/// A wide mixed-operation update touching many objects (stress case).
fn large_mset(i: u64) -> MSet {
    let ops = (0..32)
        .map(|k| {
            let object = ObjectId(k);
            match k % 4 {
                0 => ObjectOp::new(object, Operation::Incr(k as i64)),
                1 => ObjectOp::new(object, Operation::Write(Value::Int(k as i64))),
                2 => ObjectOp::new(
                    object,
                    Operation::TimestampedWrite(
                        VersionTs::new(i + k, ClientId(k)),
                        Value::Text(format!("value-{k:04}")),
                    ),
                ),
                _ => ObjectOp::new(object, Operation::MulBy(2)),
            }
        })
        .collect();
    MSet::new(EtId(i + 1), SiteId(i % 3), ops)
}

fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec");
    group.throughput(Throughput::Elements(BATCH as u64));

    for (shape, make) in [
        ("small", small_mset as fn(u64) -> MSet),
        ("large", large_mset as fn(u64) -> MSet),
    ] {
        let msets: Vec<MSet> = (0..BATCH as u64).map(make).collect();
        let encoded: Vec<Bytes> = msets.iter().map(encode_mset).collect();
        let framed: Vec<Bytes> = msets
            .iter()
            .map(|m| encode_frame(&Frame::MSet(m.clone())))
            .collect();

        group.bench_function(BenchmarkId::new("encode_mset", shape), |b| {
            b.iter(|| {
                for m in &msets {
                    black_box(encode_mset(black_box(m)));
                }
            })
        });

        group.bench_function(BenchmarkId::new("decode_mset", shape), |b| {
            b.iter(|| {
                for e in &encoded {
                    black_box(decode_mset(black_box(e)).expect("valid encoding"));
                }
            })
        });

        group.bench_function(BenchmarkId::new("encode_frame", shape), |b| {
            b.iter(|| {
                for m in &msets {
                    black_box(encode_frame(black_box(&Frame::MSet(m.clone()))));
                }
            })
        });

        // The same frames into one reused buffer, as esrd encodes every
        // link entry and reply: the encoding allocates nothing once the
        // buffer has grown to the largest frame.
        let mut reused = BytesMut::new();
        group.bench_function(BenchmarkId::new("encode_frame_into", shape), |b| {
            b.iter(|| {
                for m in &msets {
                    reused.clear();
                    encode_frame_into(black_box(&Frame::MSet(m.clone())), &mut reused);
                    black_box(&reused);
                }
            })
        });

        group.bench_function(BenchmarkId::new("decode_frame", shape), |b| {
            b.iter(|| {
                for f in &framed {
                    black_box(decode_frame(black_box(f)).expect("valid encoding"));
                }
            })
        });
    }

    // Control-plane frames are tiny; measure the fixed per-frame cost.
    let controls: Vec<Bytes> = (0..BATCH as u64)
        .map(|i| {
            encode_frame(&Frame::Applied {
                site: SiteId(i % 3),
                et: EtId(i + 1),
                version: Some(VersionTs::new(i + 1, ClientId(i % 3))),
            })
        })
        .collect();
    group.bench_function(BenchmarkId::new("decode_frame", "control"), |b| {
        b.iter(|| {
            for f in &controls {
                black_box(decode_frame(black_box(f)).expect("valid encoding"));
            }
        })
    });

    group.finish();
}

criterion_group!(benches, bench_wire);
criterion_main!(benches);

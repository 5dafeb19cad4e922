//! Instrumentation overhead on the step esrd runs.
//!
//! The replica sites carry no instruments: the node that runs a site
//! folds the site's counters from the events it records
//! ([`Event::count`] — one match per event, a relaxed atomic add for
//! each event that counts) into its one [`NodeInstruments`] bundle. This bench
//! measures exactly that: the same COMMU stream as `apply_path`, fed
//! one `PeerFrame(MSet)` at a time to [`NodeCore::step`] on a follower
//! — the step esrd runs per propagated update — once with every
//! returned event dropped and once with the fold applied to each. The
//! acceptance bar is <5% overhead on the instrumented variant.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use esr_core::ids::{EtId, ObjectId, SiteId};
use esr_core::op::{ObjectOp, Operation};
use esr_obs::{MetricsRegistry, NodeInstruments};
use esr_replica::ctrl::{Effect, NodeCore, NodeEvent};
use esr_replica::mset::MSet;
use esr_replica::span::Event;
use esr_replica::state::{RtMethod, SiteState};
use esr_replica::wire::Frame;

// Mirrors apply_path.rs so the two benches are comparable.
const N: u64 = 16_384;
const OPS_PER_MSET: u64 = 16;
const WINDOW: u64 = 2048;
const REGION: u64 = 2048;

fn object_for(i: u64, j: u64) -> ObjectId {
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

/// Steps a fresh follower core through the stream, handing every
/// event the steps return to `fold`; returns the core.
fn run(msets: &[MSet], mut fold: impl FnMut(&Event)) -> NodeCore {
    let me = SiteId(2);
    let state = SiteState::new(RtMethod::Commu, me);
    let mut core = NodeCore::fresh(state, RtMethod::Commu, me, 3, None);
    for m in msets {
        let frame = Frame::MSet(black_box(m.clone()));
        for effect in core.step(NodeEvent::PeerFrame(frame)) {
            if let Effect::Event(event) = effect {
                fold(&event);
            }
        }
    }
    core
}

fn bench_obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");
    group.throughput(criterion::Throughput::Elements(N * OPS_PER_MSET));

    let msets = inc_msets();

    group.bench_function(BenchmarkId::new("COMMU", "uninstrumented"), |b| {
        b.iter(|| {
            black_box(run(&msets, |event| {
                black_box(event);
            }))
        })
    });

    group.bench_function(BenchmarkId::new("COMMU", "instrumented"), |b| {
        let registry = MetricsRegistry::new();
        // The same registered cells every iteration, exactly like a
        // restarting daemon.
        let obs = NodeInstruments::for_site(&registry, "commu", SiteId(2));
        b.iter(|| black_box(run(&msets, |event| event.count(&obs))))
    });

    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);

//! Instrumentation overhead on the apply path esrd runs.
//!
//! The `esr-obs` contract is "a few relaxed atomics per delivered
//! MSet, one branch per call when detached" — cheap enough to leave
//! attached everywhere. This bench measures exactly that claim: the
//! same COMMU stream as `apply_path`, fed to [`ReplicaSite::deliver`]
//! one MSet at a time (what an attached esrd pays), once with a
//! detached (default) bundle and once attached to a live registry. The
//! acceptance bar is <5% overhead on the instrumented variant.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use esr_core::ids::{EtId, ObjectId, SiteId};
use esr_core::op::{ObjectOp, Operation};
use esr_obs::{MetricsRegistry, SiteInstruments};
use esr_replica::commu::CommuSite;
use esr_replica::mset::MSet;
use esr_replica::site::ReplicaSite;

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

fn run(mut site: CommuSite, msets: &[MSet]) -> u64 {
    for m in msets {
        site.deliver(black_box(m.clone()));
    }
    site.applied()
}

fn bench_obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");
    group.throughput(criterion::Throughput::Elements(N * OPS_PER_MSET));

    let msets = inc_msets();

    group.bench_function(BenchmarkId::new("COMMU", "uninstrumented"), |b| {
        b.iter(|| {
            // Default bundle: detached, one branch per call.
            black_box(run(CommuSite::new(SiteId(0)), &msets))
        })
    });

    group.bench_function(BenchmarkId::new("COMMU", "instrumented"), |b| {
        let registry = MetricsRegistry::new();
        b.iter(|| {
            let mut site = CommuSite::new(SiteId(0));
            // Re-attaching returns the same registered cells each
            // iteration, exactly like a restarting site.
            site.attach_metrics(SiteInstruments::for_site(&registry, "COMMU", 0));
            black_box(run(site, &msets))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);

//! What the process-cluster tests (`proc_cluster.rs`, `failover.rs`,
//! `spans.rs`, `checkpoint.rs`) share: the daemon binary, a private
//! directory per cluster, the order-insensitive per-method workload,
//! trace certification and waiting for a view. Each test binary uses a
//! subset.
#![allow(dead_code)]

use std::path::PathBuf;
use std::time::{Duration, Instant};

use esr::core::{EtId, ObjectId, ObjectOp, Operation, SiteId, Value};
use esr::runtime::{ProcCluster, RtMethod};
use esr_check::certify::{certify, SiteTrace};

pub const X: ObjectId = ObjectId(0);
pub const Y: ObjectId = ObjectId(1);
/// Sites per cluster.
pub const N: usize = 3;
/// Suspicion fires after ~3s of coordinator silence (12 ticks of
/// 250ms); give elections a generous multiple of that.
pub const FAILOVER: Duration = Duration::from_secs(45);

pub fn esrd() -> &'static str {
    env!("CARGO_BIN_EXE_esrd")
}

/// A unique private directory for one cluster (addr files, epochs,
/// journals, snapshots).
pub fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let k = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("esr-proc-{}-{tag}-{k}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Submits update `i`, originating it at one of `origins` (a test that
/// kills a daemon passes only the living sites — a killed daemon cannot
/// accept submissions, unlike the simulator, where a submit waits for
/// the site). Ops are chosen per method so the final state is
/// independent of delivery order.
pub fn submit(c: &ProcCluster, method: RtMethod, i: u64, origins: &[u64]) -> EtId {
    let origin = SiteId(origins[i as usize % origins.len()]);
    let result = match method {
        RtMethod::Ordup => {
            if i % 3 == 2 {
                c.submit_update(origin, vec![ObjectOp::new(X, Operation::MulBy(2))])
            } else {
                c.submit_update(
                    origin,
                    vec![
                        ObjectOp::new(X, Operation::Incr(i as i64 + 1)),
                        ObjectOp::new(Y, Operation::Incr(1)),
                    ],
                )
            }
        }
        RtMethod::Commu | RtMethod::Compe => c.submit_update(
            origin,
            vec![
                ObjectOp::new(X, Operation::Incr(i as i64 + 1)),
                ObjectOp::new(Y, Operation::Incr(1)),
            ],
        ),
        RtMethod::Ritu | RtMethod::RituMv => c.submit_blind_write(origin, X, Value::Int(i as i64)),
    };
    result.unwrap_or_else(|e| panic!("{method:?}: submit {i} failed: {e}"))
}

/// Dumps every site's EventRing and runs the replication-aware trace
/// certifier over the quiesced cluster: the per-method visibility and
/// convergence specs must hold on the *live* run's own evidence, not
/// just on the final snapshots.
pub fn certify_cluster(c: &ProcCluster, method: RtMethod) {
    let traces: Vec<SiteTrace> = (0..N)
        .map(|s| {
            let (dropped, events) = c
                .trace_of(SiteId(s as u64))
                .unwrap_or_else(|e| panic!("{method:?}: trace of site {s}: {e}"));
            SiteTrace::from_dump(s as u64, dropped, events)
        })
        .collect();
    let findings = certify(method, &traces);
    assert!(
        findings.is_empty(),
        "{method:?}: trace certification failed:\n{findings:#?}"
    );
}

/// Polls `site` until it reports a view of at least `min_view`.
pub fn wait_for_view(c: &ProcCluster, site: SiteId, min_view: u64, what: &str) -> u64 {
    let deadline = Instant::now() + FAILOVER;
    loop {
        if let Ok(s) = c.status_of(site) {
            if s.view >= min_view {
                return s.view;
            }
        }
        assert!(
            Instant::now() < deadline,
            "{what}: site {} never reached view {min_view} within {FAILOVER:?}",
            site.raw()
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

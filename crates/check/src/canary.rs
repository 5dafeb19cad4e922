//! Seeded defect canaries: known-bad (and matching known-good) setups
//! the checker must classify correctly before its clean-sweep verdict
//! means anything.
//!
//! Two layers:
//!
//! * **shim-level** — hand-driven thread harnesses exercising the
//!   instrumented primitives directly: an unsynchronized write pair
//!   (data race), its mutex-fixed control, an opposite-order lock pair
//!   (inversion), and its gate-locked control. These validate the trace
//!   detectors themselves with exact expected verdicts.
//! * **runtime-level** — [`RtCanary`] faults injected into the real
//!   [`Cluster`] and driven through the schedule explorer: a disabled
//!   ORDUP sequencer (order violation) and an ignored epsilon budget
//!   (bound breach), both planted in the cluster's effect executor, and
//!   an eagerly certified VTNC horizon — the control core's own
//!   `CtrlCanary::StaleVtncCert`, the defect `esr-model` also hunts,
//!   here exposed through real threads. Each must be flagged by the
//!   oracles in at least one explored schedule.
//!
//! The inversion harness runs its two threads *sequentially* — the
//! detector is order-based, not occurrence-based, so it flags the
//! hazard without the harness having to risk a real deadlock.

use esr_runtime::{RtCanary, RtMethod};
use esr_sim::probe;

use crate::explore::{run_recorded, run_scheduled, schedule_matrix};
use crate::oracles::{self, OracleFinding};
use crate::race::{Finding, FindingKind, LockOrderDetector, RaceDetector};

/// Locations for the hand-built harnesses, outside the cluster's
/// `SITE_STATE_LOC` namespace.
const CANARY_LOC: u64 = 1 << 40;

/// One self-test verdict.
#[derive(Debug)]
pub struct SelfTest {
    /// Which canary ran.
    pub name: &'static str,
    /// Did the checker classify it correctly?
    pub pass: bool,
    /// What the detectors reported.
    pub detail: String,
}

fn spawn_named(name: &str, f: impl FnOnce() + Send + 'static) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.to_owned())
        .spawn(f)
        .unwrap_or_else(|e| panic!("spawn canary thread: {e}"))
}

/// Two threads write one location with no synchronization edge between
/// them: the race detector must flag it.
fn race_canary() -> Vec<Finding> {
    let ((), trace) = run_recorded(|| {
        let a = spawn_named("canary-a", || probe::mem_write(CANARY_LOC));
        let b = spawn_named("canary-b", || probe::mem_write(CANARY_LOC));
        let _ = a.join();
        let _ = b.join();
    });
    RaceDetector::analyze(&trace)
}

/// The fixed control: the same write pair, each guarded by one shim
/// mutex whose release → acquire edge orders them. Zero findings
/// expected.
fn race_control() -> Vec<Finding> {
    let ((), trace) = run_recorded(|| {
        let m = std::sync::Arc::new(parking_lot::Mutex::new(()));
        let handles: Vec<_> = ["canary-a", "canary-b"]
            .into_iter()
            .map(|n| {
                let m = std::sync::Arc::clone(&m);
                spawn_named(n, move || {
                    let g = m.lock();
                    probe::mem_write(CANARY_LOC + 1);
                    drop(g);
                })
            })
            .collect();
        for h in handles {
            let _ = h.join();
        }
    });
    RaceDetector::analyze(&trace)
}

/// Opposite-order acquisitions of two locks from two threads (run
/// sequentially — the hazard is the order, not the timing): the
/// lock-order detector must flag it.
fn inversion_canary() -> Vec<Finding> {
    let ((), trace) = run_recorded(|| {
        let a = std::sync::Arc::new(parking_lot::Mutex::new(()));
        let b = std::sync::Arc::new(parking_lot::Mutex::new(()));
        let (a1, b1) = (std::sync::Arc::clone(&a), std::sync::Arc::clone(&b));
        let t1 = spawn_named("canary-ab", move || {
            let ga = a1.lock();
            let gb = b1.lock();
            drop(gb);
            drop(ga);
        });
        let _ = t1.join();
        let t2 = spawn_named("canary-ba", move || {
            let gb = b.lock();
            let ga = a.lock();
            drop(ga);
            drop(gb);
        });
        let _ = t2.join();
    });
    LockOrderDetector::analyze(&trace)
}

/// The gated control: the same opposite-order pair, but both threads
/// hold a common gate lock across the nested acquisitions — no deadlock
/// is possible, and no finding is expected.
fn inversion_control() -> Vec<Finding> {
    let ((), trace) = run_recorded(|| {
        let gate = std::sync::Arc::new(parking_lot::Mutex::new(()));
        let a = std::sync::Arc::new(parking_lot::Mutex::new(()));
        let b = std::sync::Arc::new(parking_lot::Mutex::new(()));
        let (gate1, a1, b1) = (
            std::sync::Arc::clone(&gate),
            std::sync::Arc::clone(&a),
            std::sync::Arc::clone(&b),
        );
        let t1 = spawn_named("canary-ab", move || {
            let gg = gate1.lock();
            let ga = a1.lock();
            let gb = b1.lock();
            drop(gb);
            drop(ga);
            drop(gg);
        });
        let _ = t1.join();
        let t2 = spawn_named("canary-ba", move || {
            let gg = gate.lock();
            let gb = b.lock();
            let ga = a.lock();
            drop(ga);
            drop(gb);
            drop(gg);
        });
        let _ = t2.join();
    });
    LockOrderDetector::analyze(&trace)
}

fn classify(
    name: &'static str,
    findings: &[Finding],
    expect_kind: Option<FindingKind>,
) -> SelfTest {
    let (pass, detail) = match expect_kind {
        Some(kind) => {
            let hit = findings.iter().any(|f| f.kind == kind);
            let detail = if hit {
                findings
                    .iter()
                    .find(|f| f.kind == kind)
                    .map(ToString::to_string)
                    .unwrap_or_default()
            } else {
                format!("expected a {kind:?} finding, got {findings:?}")
            };
            (hit, detail)
        }
        None => (
            findings.is_empty(),
            if findings.is_empty() {
                "clean, as expected".to_owned()
            } else {
                format!("expected no findings, got {findings:?}")
            },
        ),
    };
    SelfTest { name, pass, detail }
}

/// Runs the four shim-level self-tests.
pub fn shim_self_tests() -> Vec<SelfTest> {
    vec![
        classify("data-race canary", &race_canary(), Some(FindingKind::DataRace)),
        classify("data-race control", &race_control(), None),
        classify(
            "lock-inversion canary",
            &inversion_canary(),
            Some(FindingKind::LockInversion),
        ),
        classify("lock-inversion control", &inversion_control(), None),
    ]
}

/// One runtime canary: the fault, the workload method that exposes it,
/// and the oracle expected to fire.
#[derive(Debug, Clone, Copy)]
pub struct RtCanaryCase {
    /// Display name.
    pub name: &'static str,
    /// Fault injected into the cluster.
    pub canary: RtCanary,
    /// Workload method it targets.
    pub method: RtMethod,
    /// Oracle family expected to flag it.
    pub oracle: &'static str,
}

/// The runtime canary matrix.
pub const RT_CANARIES: [RtCanaryCase; 3] = [
    RtCanaryCase {
        name: "ordup sequencer disabled",
        canary: RtCanary::OrdupSequencerDisabled,
        method: RtMethod::Ordup,
        oracle: "ordup-order",
    },
    RtCanaryCase {
        name: "epsilon budget ignored",
        canary: RtCanary::EpsilonIgnored,
        method: RtMethod::Commu,
        oracle: "epsilon",
    },
    RtCanaryCase {
        name: "eager VTNC certification",
        canary: RtCanary::VtncEagerCertify,
        method: RtMethod::RituMv,
        oracle: "vtnc-visibility",
    },
];

/// Explores `schedules` interleavings of `case`'s workload with the
/// fault injected, returning the findings of the first schedule whose
/// oracles fire (plus how many schedules it took). `None` means no
/// schedule exposed the fault — a self-test failure.
pub fn expose(case: &RtCanaryCase, seed: u64, schedules: u64) -> Option<(u64, Vec<OracleFinding>)> {
    for (i, spec) in schedule_matrix(seed, schedules).into_iter().enumerate() {
        let explored = run_scheduled(spec, oracles::expected_threads(case.method), || {
            oracles::run_workload(case.method, case.canary)
        });
        let findings: Vec<OracleFinding> = oracles::check(&explored.value)
            .into_iter()
            .filter(|f| f.oracle == case.oracle)
            .collect();
        if !findings.is_empty() {
            return Some((i as u64 + 1, findings));
        }
    }
    None
}

//! ESR safety oracles and the workloads that generate their evidence.
//!
//! Each explored run executes a fixed per-method workload against a
//! [`Cluster::checked`] cluster, collects *evidence* (final snapshots,
//! per-site event-log dumps, per-query epsilon accounting), and the
//! oracle pass judges it:
//!
//! * **[`certify`]** — the one judge of a site's history of MSet
//!   applications: every per-method guarantee (ORDUP's global order,
//!   applied-set agreement, VTNC monotonicity and visibility, COMPE's
//!   one outcome per ET, no double apply, …) is a certifier clause over
//!   the typed event plane; its findings keep their clause names.
//! * **apply-count** — every site recorded exactly one `Apply` span per
//!   submitted update (COMPE excepted: an abort that outruns its MSet
//!   suppresses the apply). Unresolved COMPE risk cannot reach the
//!   oracles at all: [`Cluster::quiesce`] returns only once every site
//!   holds no at-risk MSet.
//! * **epsilon** — no admitted query imported more inconsistency than
//!   its declared [`EpsilonSpec`] allows.
//! * **convergence** — after quiesce, all replicas expose identical
//!   state (the overarching ESR guarantee every method promises).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crossbeam::channel;

use esr_core::divergence::EpsilonSpec;
use esr_core::ids::{ObjectId, SiteId};
use esr_core::op::{ObjectOp, Operation};
use esr_core::value::Value;
use esr_replica::span::{Event, SpanStage};
use esr_runtime::{Cluster, RtCanary, RtMethod};

use crate::certify::{certify, SiteTrace};

/// Sites per explored cluster.
pub const SITES: usize = 3;

const X: ObjectId = ObjectId(0);
const Y: ObjectId = ObjectId(1);

/// One oracle violation.
#[derive(Debug, Clone)]
pub struct OracleFinding {
    /// Which oracle fired.
    pub oracle: &'static str,
    /// What it saw.
    pub detail: String,
}

impl fmt::Display for OracleFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.oracle, self.detail)
    }
}

/// One query's declared budget and observed accounting.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Site queried.
    pub site: u64,
    /// Budget the client declared.
    pub spec: EpsilonSpec,
    /// Inconsistency the site charged.
    pub charged: u64,
    /// Whether the query was admitted.
    pub admitted: bool,
}

/// Everything one explored run produces for the oracle pass.
#[derive(Debug)]
pub struct RunEvidence {
    /// Method under test.
    pub method: RtMethod,
    /// Final snapshot per site (post-quiesce).
    pub snapshots: Vec<BTreeMap<ObjectId, Value>>,
    /// Event-log dump per site (post-quiesce).
    pub traces: Vec<SiteTrace>,
    /// Query accounting records.
    pub queries: Vec<QueryRecord>,
    /// Update ETs submitted.
    pub submitted: usize,
}

/// Number of threads participating in the scheduled run for `method`
/// (driver + sites + load helpers) — the scheduler's
/// expected-registration count. Coordination runs inside the site
/// threads' control cores, so no method adds a thread of its own.
pub fn expected_threads(method: RtMethod) -> usize {
    let helpers = if uses_load_helpers(method) { 2 } else { 0 };
    1 + SITES + helpers
}

fn uses_load_helpers(method: RtMethod) -> bool {
    matches!(method, RtMethod::Ordup | RtMethod::Commu)
}

fn record_query(
    cluster: &Cluster,
    site: SiteId,
    read_set: &[ObjectId],
    spec: EpsilonSpec,
    out: &mut Vec<QueryRecord>,
) {
    let o = cluster.query(site, read_set, spec);
    out.push(QueryRecord {
        site: site.raw(),
        spec,
        charged: o.charged,
        admitted: o.admitted,
    });
}

/// The per-method workload, run inside a scheduled (or recorded)
/// section. Returns the oracle evidence plus a teardown closure that
/// joins the helper threads and drops the cluster — the caller must run
/// it only after the scheduler gate is released.
pub fn run_workload(method: RtMethod, canary: RtCanary) -> (RunEvidence, Box<dyn FnOnce()>) {
    let cluster = Arc::new(Cluster::checked(method, SITES, canary));
    let mut queries: Vec<QueryRecord> = Vec::new();
    let mut helpers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut stop_txs: Vec<channel::Sender<()>> = Vec::new();
    let submitted;

    if uses_load_helpers(method) {
        // Two concurrent submitters: under ORDUP this is what makes the
        // global sequencer *matter* — the explorer can preempt between
        // a submitter's sequence grab and its sends, so MSets arrive at
        // sites out of sequence order and only the hold-back restores
        // it. The helpers park on a stop channel after their last send:
        // a scheduled thread must stay inside instrumented operations
        // until the gate is released (an exited participant would stall
        // the token).
        let (done_tx, done_rx) = channel::unbounded::<u64>();
        for w in 0..2u64 {
            let c = Arc::clone(&cluster);
            let done = done_tx.clone();
            let (stop_tx, stop_rx) = channel::unbounded::<()>();
            stop_txs.push(stop_tx);
            let handle = std::thread::Builder::new()
                .name(format!("esr-load-{w}"))
                .spawn(move || {
                    for k in 0..3u64 {
                        let ops = match method {
                            RtMethod::Ordup => match (w + k) % 3 {
                                0 => vec![ObjectOp::new(X, Operation::Incr(3))],
                                1 => vec![ObjectOp::new(X, Operation::MulBy(2))],
                                _ => vec![
                                    ObjectOp::new(X, Operation::Decr(1)),
                                    ObjectOp::new(Y, Operation::Incr(1)),
                                ],
                            },
                            _ => vec![ObjectOp::new(X, Operation::Incr(1))],
                        };
                        c.submit_update(SiteId(w), ops);
                    }
                    let _ = done.send(w);
                    let _ = stop_rx.recv(); // park until teardown
                })
                .unwrap_or_else(|e| panic!("spawn load helper: {e}"));
            helpers.push(handle);
        }
        // Mid-flight query: evidence for the epsilon-accounting oracle
        // (a strict query must not be admitted with a nonzero charge).
        record_query(&cluster, SiteId(2), &[X], EpsilonSpec::STRICT, &mut queries);
        for _ in 0..2 {
            let _ = done_rx.recv();
        }
        submitted = 6;
    } else {
        match method {
            RtMethod::Ritu | RtMethod::RituMv => {
                for i in 1..=6i64 {
                    let obj = if i % 2 == 0 { Y } else { X };
                    cluster.submit_blind_write(SiteId(i as u64 % SITES as u64), obj, Value::Int(i));
                }
                record_query(&cluster, SiteId(1), &[X, Y], EpsilonSpec::bounded(1), &mut queries);
                submitted = 6;
            }
            RtMethod::Compe => {
                let mut ets = Vec::new();
                for i in 0..4i64 {
                    let ops = vec![ObjectOp::new(X, Operation::Incr(i + 1))];
                    ets.push(cluster.submit_update(SiteId(i as u64 % SITES as u64), ops));
                }
                record_query(&cluster, SiteId(0), &[X], EpsilonSpec::STRICT, &mut queries);
                cluster.commit(ets[0]);
                cluster.abort(ets[1]);
                cluster.commit(ets[2]);
                cluster.abort(ets[3]);
                submitted = 4;
            }
            RtMethod::Ordup | RtMethod::Commu => unreachable!("helper path"),
        }
    }

    cluster.quiesce();
    // Post-quiesce strict query: with the system settled this must be
    // admitted with zero charge under every method.
    record_query(&cluster, SiteId(0), &[X], EpsilonSpec::STRICT, &mut queries);

    let snapshots = (0..SITES)
        .map(|i| cluster.snapshot_of(SiteId(i as u64)))
        .collect();
    let traces = (0..SITES as u64)
        .map(|i| {
            let (dropped, events) = cluster.trace_of(SiteId(i));
            SiteTrace::from_dump(i, dropped, events)
        })
        .collect();

    let evidence = RunEvidence {
        method,
        snapshots,
        traces,
        queries,
        submitted,
    };
    let teardown = Box::new(move || {
        drop(stop_txs); // unparks the helpers
        for h in helpers {
            let _ = h.join();
        }
        drop(cluster);
    });
    (evidence, teardown)
}

/// Judges one run's evidence with every applicable oracle.
pub fn check(e: &RunEvidence) -> Vec<OracleFinding> {
    let mut out = Vec::new();
    convergence_oracle(e, &mut out);
    epsilon_oracle(e, &mut out);
    out.extend(certify(e.method, &e.traces).iter().map(|f| OracleFinding {
        oracle: f.check,
        detail: f.located(),
    }));
    if e.method != RtMethod::Compe {
        apply_count_oracle(e, &mut out);
    }
    out
}

fn convergence_oracle(e: &RunEvidence, out: &mut Vec<OracleFinding>) {
    for (i, s) in e.snapshots.iter().enumerate().skip(1) {
        if s != &e.snapshots[0] {
            out.push(OracleFinding {
                oracle: "convergence",
                detail: format!(
                    "site {i} diverged after quiesce: {:?} vs site 0 {:?}",
                    s, e.snapshots[0]
                ),
            });
        }
    }
}

fn epsilon_oracle(e: &RunEvidence, out: &mut Vec<OracleFinding>) {
    for q in &e.queries {
        if q.admitted && q.charged > q.spec.limit {
            out.push(OracleFinding {
                oracle: "epsilon",
                detail: format!(
                    "site {} admitted a query charged {} against a declared budget of {}",
                    q.site, q.charged, q.spec.limit
                ),
            });
        }
    }
}

fn apply_count_oracle(e: &RunEvidence, out: &mut Vec<OracleFinding>) {
    for t in &e.traces {
        let applies = t
            .events
            .iter()
            .filter(|ev| matches!(ev, Event::Span(r) if r.stage == SpanStage::Apply))
            .count();
        if applies != e.submitted {
            out.push(OracleFinding {
                oracle: "apply-count",
                detail: format!(
                    "site {} applied {applies} of {} submitted updates",
                    t.site, e.submitted
                ),
            });
        }
    }
}

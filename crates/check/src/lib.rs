//! `esr-check`: concurrency analysis for the ESR thread runtime.
//!
//! Three layers, composed by the `esr-check` binary:
//!
//! 1. **Trace detectors** ([`race`]) — FastTrack-style happens-before
//!    data-race detection and lock-order-inversion analysis over the
//!    synchronization traces the instrumented shims record.
//! 2. **Schedule explorer** ([`sched`], [`explore`]) — a loom-style
//!    cooperative token scheduler installed as the probe gate, driving
//!    the real [`esr_runtime::Cluster`] through hundreds of distinct,
//!    seed-deterministic interleavings.
//! 3. **ESR safety oracles** ([`oracles`]) — per-run judgments of the
//!    ESR guarantees: replica convergence and epsilon accounting from
//!    snapshots and query records, and every property of a site's
//!    history of MSet applications (ORDUP order, applied-set agreement,
//!    VTNC visibility, one COMPE outcome per ET, …) from the layer-5
//!    certifier over the cluster's event-log dumps.
//!
//! [`canary`] holds the seeded-defect self-tests that gate the clean
//! sweep: the checker first proves it *can* catch each defect class,
//! then certifies the unmutated runtime clean across the requested
//! schedule budget.
//!
//! Two further layers target the control plane (`esr-check --model`):
//!
//! 4. **Exhaustive model checker** ([`model`]) — a stateless
//!    sleep-set DFS over every delivery/crash/duplication interleaving
//!    of a 3-site world running the pure [`esr_runtime::ctrl`] step
//!    functions, with frame-aware fault injection, terminal oracles
//!    (state-derived ones plus the layer-5 certifier over every
//!    terminal's traces) and recovery idempotence. Its own seeded
//!    canaries live in [`model::canary`].
//! 5. **Trace certifier** ([`certify`]) — the one judge of typed
//!    event-log dumps, whichever executor recorded them (live `esrd`
//!    sites, the simulator, thread-cluster sites, model nodes):
//!    per-site apply/complete/VTNC/decision causality and cross-site
//!    agreement, degrading gracefully on ring overflow.
//!
//! The probe hub is process-global, so explorations must not overlap;
//! the binary runs them sequentially and tests serialize on a mutex.

pub mod canary;
pub mod certify;
pub mod explore;
pub mod model;
pub mod oracles;
pub mod race;
pub mod sched;

//! `esr-check`: the checking story for the ESR control core.
//!
//! Two layers, the first composed by the `esr-check` binary:
//!
//! 1. **Exhaustive model checker** ([`model`]) — a stateless
//!    sleep-set DFS over every delivery/crash/duplication interleaving
//!    of a 3-site world running the pure [`esr_runtime::ctrl`] step
//!    functions, with frame-aware fault injection, terminal oracles
//!    (state-derived ones plus the trace certifier over every
//!    terminal's traces) and recovery idempotence. Its seeded canaries
//!    live in [`model::canary`]: the binary first proves the checker
//!    *can* catch each defect class, then sweeps the unmutated core
//!    clean.
//! 2. **Trace certifier** ([`certify`]) — the one judge of typed
//!    event-log dumps, whichever executor recorded them (live `esrd`
//!    sites, the simulator, model nodes): per-site
//!    apply/complete/VTNC/decision causality and cross-site agreement,
//!    degrading gracefully on ring overflow.
//!
//! The core is a pure step function confined to one thread in every
//! executor, so the only thing a schedule can vary is the arrival
//! order of frames and client calls — which the model enumerates and
//! `tests/adversarial.rs` samples under seeded faults. What checks
//! what, and what nothing checks, is DESIGN.md §9.

pub mod certify;
pub mod model;

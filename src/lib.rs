//! # esr — asynchronous replica control with epsilon-serializability
//!
//! Facade crate re-exporting the full public API of the ESR workspace: a
//! reproduction of Pu & Leff, *Replica Control in Distributed Systems: An
//! Asynchronous Approach* (SIGMOD 1991 / Columbia TR CUCS-053-90).
//!
//! See the individual crates for details:
//!
//! * [`core`] — ESR theory: ETs, operations, histories, checkers, locks;
//! * [`sim`] — deterministic discrete-event simulation kernel;
//! * [`net`] — simulated network with latency, faults, and partitions;
//! * [`storage`] — object stores, multiversion store, stable queues,
//!   recovery log;
//! * [`replica`] — the four replica-control methods (ORDUP, COMMU, RITU,
//!   COMPE) plus synchronous baselines (2PC write-all, weighted voting);
//! * [`runtime`] — the `esrd` daemon and its multi-process harness;
//! * [`obs`] — zero-dependency metrics registry and event tracing;
//! * [`workload`] — generators, metrics, and experiment drivers.

#![warn(missing_docs)]

pub use esr_core as core;
pub use esr_net as net;
pub use esr_obs as obs;
pub use esr_replica as replica;
pub use esr_runtime as runtime;
pub use esr_sim as sim;
pub use esr_storage as storage;
pub use esr_workload as workload;

/// Convenience prelude importing the names used by nearly every program.
pub mod prelude {
    pub use esr_core::{
        EpsilonSpec, EpsilonTransaction, EtBuilder, EtId, EtKind, History, ObjectId, ObjectOp,
        Operation, Protocol, SiteId, Value,
    };
}

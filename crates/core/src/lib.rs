//! # esr-core — epsilon-serializability theory
//!
//! Core model of **epsilon-serializability (ESR)** after Pu & Leff,
//! *Replica Control in Distributed Systems: An Asynchronous Approach*
//! (Columbia TR CUCS-053-90 / SIGMOD 1991).
//!
//! ESR extends 1-copy serializability by letting read-only *query ETs*
//! interleave freely with *update ETs* and observe **bounded**
//! inconsistency, while update ETs remain serializable among themselves.
//! The error a query can accumulate is bounded by its *overlap* — the set
//! of conflicting update ETs concurrent with it — and users tune the
//! bound per query with an epsilon specification; at epsilon = 0 queries
//! are strictly serializable.
//!
//! This crate supplies the machinery every replica-control method builds
//! on:
//!
//! * [`ids`] — newtyped identifiers (ETs, sites, objects, timestamps);
//! * [`value`] / [`op`] — object values and the operation algebra with
//!   commutativity, read-independence, and compensation semantics;
//! * [`et`] — epsilon-transaction programs and classification;
//! * [`history`] — operation logs, including the paper's example log (1);
//! * [`serializability`] — conflict-graph SR test, ε-serializability
//!   test, brute-force oracle;
//! * [`overlap`] — overlap sets and the error-bound theorem;
//! * [`divergence`] — inconsistency counters, epsilon specs, and COMMU
//!   lock-counters;
//! * [`lock`] — ET lock modes, the paper's Tables 2–3, and a queueing
//!   2PL lock manager with deadlock detection;
//! * [`spatial`] — the §5.1 spatial consistency criteria: bounding
//!   queries by pending operations, value deviation, or changed items;
//! * [`fastid`] — a cheap non-cryptographic hasher for id-keyed
//!   internal maps (shared by the storage and observability layers).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod divergence;
pub mod error;
pub mod et;
pub mod fastid;
pub mod history;
pub mod ids;
pub mod lock;
pub mod op;
pub mod overlap;
pub mod serializability;
pub mod spatial;
pub mod value;

pub use divergence::{Admission, EpsilonSpec, InconsistencyCounter, LockCounters};
pub use error::{CoreError, CoreResult};
pub use et::{EpsilonTransaction, EtBuilder, EtKind};
pub use fastid::{FastIdBuildHasher, FastIdHasher, FastIdMap, FastIdSet};
pub use history::{interleavings, History, HistoryEvent};
pub use ids::{ClientId, EtId, LamportTs, MsgId, ObjectId, SeqNo, SiteId, VersionTs};
pub use lock::{Compat, LockManager, LockMode, LockOutcome, Protocol};
pub use op::{ObjectOp, Operation};
pub use overlap::{imported_inconsistency, overlap_set, overlap_size};
pub use serializability::{
    is_epsilon_serializable, is_final_state_serializable, is_serializable, serialization_order,
    ConflictGraph,
};
pub use spatial::{DeviationTracker, SpatialSpec};
pub use value::Value;

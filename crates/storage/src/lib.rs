//! # esr-storage — the local site substrate
//!
//! The paper factors local consistency out of replica control: "each
//! site is capable of maintaining local consistency", unprocessed MSets
//! live in *stable queues*, and backward replica control needs an
//! executed-MSet log. This crate supplies those substrates:
//!
//! * [`store`] — single-version object stores, including the
//!   last-writer-wins store for RITU overwrite mode;
//! * [`mvstore`] — the multiversion store with VTNC
//!   visibility (Modular Synchronization) for RITU multiversion mode;
//! * [`stable_queue`] — at-least-once queues with explicit acks, both
//!   in-memory and file-backed with crash recovery;
//! * [`journal_log`] — the journal's prefix-retired log, whose file is
//!   its only copy, in the file-backed queue's format;
//! * [`recovery_log`] — before-image logging and the two compensation
//!   strategies of COMPE (commutative fast path, suffix rollback+replay).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod journal_log;
pub mod mvstore;
pub mod recovery_log;
pub mod snapshot;
pub mod stable_queue;
pub mod store;

pub use mvstore::{MvStore, VersionedRead};
pub use recovery_log::{AppliedOp, LogRecord, RecoveryLog, RollbackReport, RollbackStrategy};
pub use stable_queue::{EntryId, FileQueue, MemQueue, StableQueue};
pub use store::{LwwOutcome, LwwStore, ObjectStore};

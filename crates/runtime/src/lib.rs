//! # esr-runtime — one protocol core, three executors
//!
//! The replica control methods of [`esr_replica`] behind one pure
//! control core, [`ctrl::NodeCore`] / [`ctrl::CoordCore`]: ORDUP
//! hold-back, completion tracking (COMMU/RITU lock-counter release),
//! VTNC certification, COMPE decisions, recovery and coordinator
//! election are side-effect-free steps returning ordered
//! [`ctrl::Effect`]s. Everything else in this crate *executes* those
//! effects:
//!
//! * [`cluster::Cluster`] — one core per OS thread, crossbeam channels
//!   as the links, an atomic global sequencer for ORDUP and an atomic
//!   version clock for RITU at the submit side. The paper's repro hint
//!   calls for "async replicas"; this is exactly that with the crates
//!   available in this workspace (threads + channels instead of an
//!   async executor). [`chaos`] swaps the channels for seeded
//!   fault-injecting durable relays and [`recovery`] adds the
//!   write-ahead journal behind [`Cluster::crash`] /
//!   [`Cluster::restart`].
//! * [`daemon::Daemon`] (`esrd`) — the same core behind real sockets,
//!   an on-disk journal, durable TCP links, checkpoints and spans;
//!   [`proc_cluster::ProcCluster`] drives N of them as OS processes.
//! * the `esr-model` checker (`crates/check`) — the same core against
//!   in-memory queues, every interleaving explored.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod ckpt;
pub mod client;
pub mod cluster;
pub mod ctrl;
pub mod daemon;
pub mod proc_cluster;
pub mod recovery;
pub mod spans;
pub mod state;

pub use chaos::{render_trace, ChaosStats, FaultPlan, TraceEvent};
pub use ckpt::{decode_payload, encode_payload, CkptPayload};
pub use client::RpcClient;
pub use cluster::{Cluster, QuiesceTimeout, RtCanary};
pub use ctrl::{CoordCore, CtrlCanary, Effect, NodeCore, NodeEvent};
pub use daemon::{Daemon, DaemonConfig};
pub use proc_cluster::ProcCluster;
pub use recovery::ApplyJournal;
pub use spans::{
    critical_path, merge_timeline, render_timeline, RawSpan, SiteSpan, SPAN_QUERY_ALL,
};
pub use state::{RtMethod, SiteAudit, SiteState};

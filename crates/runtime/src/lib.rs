//! # esr-runtime — the protocol core's real-world executors
//!
//! The replica control methods of [`esr_replica`] are coordinated by
//! one pure control core, [`ctrl::NodeCore`] / [`ctrl::CoordCore`]:
//! ORDUP hold-back, completion tracking (COMMU/RITU lock-counter
//! release), VTNC certification, COMPE decisions, recovery and
//! coordinator election are side-effect-free steps returning ordered
//! [`ctrl::Effect`]s. The core and the one executor of its effects,
//! [`esr_replica::Node`] (commit plan, view register, checkpoint chain,
//! restore-or-replay), live in `esr-replica`, so the simulator,
//! [`esr_replica::SimCluster`], runs both under virtual time; they are
//! re-exported here under their historical paths [`ctrl`], [`state`],
//! [`ckpt`] and [`commit`]. This crate holds the node's real-world
//! host, and its harness:
//!
//! * [`daemon::Daemon`] (`esrd`) — a node over real sockets, an
//!   on-disk journal ([`recovery`]), durable TCP links, snapshot files
//!   and spans;
//! * [`proc_cluster::ProcCluster`] — N `esrd` OS processes on loopback
//!   driven through the client plane by any number of client threads,
//!   `kill -9` included.
//!
//! Seeded fault injection — loss, duplication, partitions, reordering,
//! crash and restart — has one home, the simulator
//! ([`esr_replica::SimCluster::crash`] / `restart`, DESIGN.md §10). The
//! third executor, the `esr-model` checker (`crates/check`), runs the
//! same core against in-memory queues, every interleaving explored.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod daemon;
pub mod proc_cluster;
pub mod recovery;
pub mod spans;

// The pure core and its executor live in esr-replica (the simulator
// runs them too); they keep their historical paths here.
pub use esr_replica::{commit, ctrl, node_ckpt as ckpt, state};

pub use ckpt::{decode_payload, encode_payload, CkptPayload};
pub use client::RpcClient;
pub use ctrl::{CoordCore, CtrlCanary, Effect, NodeCore, NodeEvent};
pub use daemon::{Daemon, DaemonConfig, DaemonHandle};
pub use proc_cluster::{ProcCluster, QuiesceTimeout};
pub use recovery::ApplyJournal;
pub use spans::{
    critical_path, merge_timeline, render_timeline, RawSpan, SiteSpan, SPAN_QUERY_ALL,
};
pub use state::{RtMethod, SiteState};

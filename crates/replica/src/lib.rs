//! # esr-replica — asynchronous replica control methods
//!
//! The paper's contribution: four replica control methods that maintain
//! epsilon-serializability over asynchronously propagated update MSets,
//! plus a deterministic simulated cluster to run them in and synchronous
//! coherency-control baselines to compare against.
//!
//! | Method | Family | Restriction | Module |
//! |---|---|---|---|
//! | ORDUP | forward | message delivery order | [`ordup`] |
//! | COMMU | forward | operation semantics (commutativity) | [`commu`] |
//! | RITU | forward | operation semantics (blind timestamped writes) | [`ritu`] |
//! | COMPE | backward | operation value (compensation) | [`compe`] |
//! | 2PC write-all | baseline | synchronous commit | [`sync2pc`] |
//! | weighted voting | baseline | synchronous quorums | [`quorum`] |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod ckpt;
pub mod cluster;
pub mod commit;
pub mod commu;
pub mod compe;
pub mod ctrl;
pub mod etspec;
pub mod mset;
pub mod node;
pub mod node_ckpt;
pub mod ordup;
pub mod quorum;
pub mod ritu;
pub mod saga;
pub mod site;
pub mod span;
pub mod state;
pub mod sync2pc;
pub mod wire;

pub use api::{QueryBuilder, Session, UpdateBuilder};
pub use ckpt::{decode_site_ckpt, encode_site_ckpt, SiteCkpt};
pub use cluster::{ClusterConfig, ClusterStats, Method, QueryReport, SimCluster};
pub use commu::CommuSite;
pub use etspec::{PropagationClass, SpecPipe};
pub use compe::CompeSite;
pub use ctrl::{CoordCore, CtrlCanary, Effect, NodeCore, NodeEvent};
pub use mset::{MSet, OrderTag};
pub use node::{Host, Node, NodeConfig};
pub use node_ckpt::{decode_payload, encode_payload, CkptPayload};
pub use ordup::{OrdupLamportSite, OrdupSite};
pub use ritu::{RituMvSite, RituOverwriteSite};
pub use saga::{SagaCoordinator, SagaId, SagaState};
pub use quorum::{QuorumCluster, QuorumReport};
pub use site::{QueryOutcome, ReplicaSite};
pub use span::{SpanRec, SpanStage};
pub use state::{RtMethod, SiteState};
pub use sync2pc::{TwoPcCluster, TwoPcReport};
pub use wire::{decode_mset, encode_mset, WireError};

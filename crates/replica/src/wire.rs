//! Wire codec for [`MSet`]s.
//!
//! `esrd` backs outbound delivery with durable
//! [`esr_storage::stable_queue::FileQueue`]s whose payloads are opaque
//! bytes, and each site keeps a durable apply journal of the MSets it has
//! applied. Both need a complete, self-describing MSet encoding — every
//! [`Operation`] and [`Value`] variant plus all three [`OrderTag`]
//! shapes — so a site restarted after a crash can reconstruct exactly
//! the updates it had seen.
//!
//! The format is a simple tagged binary layout (big-endian integers, no
//! compression): stable within this workspace, not a cross-version
//! interchange format. Decoding is total: any byte slice either yields
//! an MSet or a [`WireError`], never a panic — torn queue tails surface
//! as errors the recovery path can skip.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use esr_core::ids::{ClientId, EtId, LamportTs, ObjectId, SeqNo, SiteId, VersionTs};
use esr_core::op::{ObjectOp, Operation};
use esr_core::value::Value;

use crate::ctrl::Evidence;
use crate::mset::{MSet, OrderTag};
use crate::site::QueryOutcome;
use crate::span::{Event, SpanRec, SpanStage};

/// Why a byte payload failed to decode as an MSet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the announced structure was complete.
    Truncated,
    /// An unknown tag byte for the given field.
    BadTag {
        /// Which field carried the tag ("order", "op", "value").
        field: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A length prefix exceeded the remaining payload (corrupt frame).
    BadLength,
    /// Embedded text was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::BadTag { field, tag } => write!(f, "unknown {field} tag {tag:#04x}"),
            WireError::BadLength => write!(f, "length prefix exceeds payload"),
            WireError::BadUtf8 => write!(f, "text field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

const ORDER_UNORDERED: u8 = 0;
const ORDER_SEQUENCED: u8 = 1;
const ORDER_LAMPORT: u8 = 2;

const OP_READ: u8 = 0;
const OP_WRITE: u8 = 1;
const OP_INCR: u8 = 2;
const OP_DECR: u8 = 3;
const OP_MULBY: u8 = 4;
const OP_DIVBY: u8 = 5;
const OP_INSERT: u8 = 6;
const OP_REMOVE: u8 = 7;
const OP_TSWRITE: u8 = 8;

const VAL_INT: u8 = 0;
const VAL_TEXT: u8 = 1;
const VAL_SET: u8 = 2;

/// Encodes an MSet into a self-contained byte payload.
pub fn encode_mset(mset: &MSet) -> Bytes {
    let mut b = BytesMut::with_capacity(32 + 16 * mset.ops.len());
    encode_mset_into(&mut b, mset);
    b.freeze()
}

pub(crate) fn encode_mset_into(b: &mut BytesMut, mset: &MSet) {
    b.put_u64(mset.et.raw());
    b.put_u64(mset.origin.raw());
    match mset.order {
        OrderTag::Unordered => b.put_u8(ORDER_UNORDERED),
        OrderTag::Sequenced(seq) => {
            b.put_u8(ORDER_SEQUENCED);
            b.put_u64(seq.raw());
        }
        OrderTag::Lamport { ts, fifo } => {
            b.put_u8(ORDER_LAMPORT);
            b.put_u64(ts.counter);
            b.put_u64(ts.site.raw());
            b.put_u64(fifo.raw());
        }
    }
    b.put_u32(mset.ops.len() as u32);
    for op in &mset.ops {
        b.put_u64(op.object.raw());
        encode_op(b, &op.op);
    }
    // Client identity for exactly-once dedup: a mandatory trailing
    // presence byte keeps decoding total under truncation.
    match mset.client {
        None => b.put_u8(0),
        Some((client, seq)) => {
            b.put_u8(1);
            b.put_u64(client.raw());
            b.put_u64(seq);
        }
    }
    // Trace context (client submit wall stamp), same trailing
    // presence-byte pattern.
    match mset.t0 {
        None => b.put_u8(0),
        Some(t0) => {
            b.put_u8(1);
            b.put_u64(t0);
        }
    }
}

pub(crate) fn encode_op(b: &mut BytesMut, op: &Operation) {
    match op {
        Operation::Read => b.put_u8(OP_READ),
        Operation::Write(v) => {
            b.put_u8(OP_WRITE);
            encode_value(b, v);
        }
        Operation::Incr(n) => {
            b.put_u8(OP_INCR);
            b.put_i64(*n);
        }
        Operation::Decr(n) => {
            b.put_u8(OP_DECR);
            b.put_i64(*n);
        }
        Operation::MulBy(k) => {
            b.put_u8(OP_MULBY);
            b.put_i64(*k);
        }
        Operation::DivBy(k) => {
            b.put_u8(OP_DIVBY);
            b.put_i64(*k);
        }
        Operation::InsertElem(e) => {
            b.put_u8(OP_INSERT);
            b.put_i64(*e);
        }
        Operation::RemoveElem(e) => {
            b.put_u8(OP_REMOVE);
            b.put_i64(*e);
        }
        Operation::TimestampedWrite(ts, v) => {
            b.put_u8(OP_TSWRITE);
            b.put_u64(ts.time);
            b.put_u64(ts.client.raw());
            encode_value(b, v);
        }
    }
}

pub(crate) fn encode_value(b: &mut BytesMut, v: &Value) {
    match v {
        Value::Int(i) => {
            b.put_u8(VAL_INT);
            b.put_i64(*i);
        }
        Value::Text(s) => {
            b.put_u8(VAL_TEXT);
            b.put_u32(s.len() as u32);
            b.put_slice(s.as_bytes());
        }
        Value::Set(s) => {
            b.put_u8(VAL_SET);
            b.put_u32(s.len() as u32);
            for e in s {
                b.put_i64(*e);
            }
        }
    }
}

/// Decodes an MSet produced by [`encode_mset`].
///
/// Decoding walks a plain slice cursor over the payload — no refcounted
/// sub-buffers, and embedded text costs exactly one `String` allocation.
pub fn decode_mset(payload: &Bytes) -> Result<MSet, WireError> {
    let mut b = payload.as_ref();
    decode_mset_from(&mut b)
}

pub(crate) fn decode_mset_from(b: &mut &[u8]) -> Result<MSet, WireError> {
    let et = EtId(get_u64(b)?);
    let origin = SiteId(get_u64(b)?);
    let order = match get_u8(b)? {
        ORDER_UNORDERED => OrderTag::Unordered,
        ORDER_SEQUENCED => OrderTag::Sequenced(SeqNo(get_u64(b)?)),
        ORDER_LAMPORT => {
            let counter = get_u64(b)?;
            let site = SiteId(get_u64(b)?);
            let fifo = SeqNo(get_u64(b)?);
            OrderTag::Lamport {
                ts: LamportTs::new(counter, site),
                fifo,
            }
        }
        tag => return Err(WireError::BadTag { field: "order", tag }),
    };
    let n = get_u32(b)? as usize;
    // Each op is at least 9 bytes; reject absurd counts up front so a
    // corrupt length cannot trigger a huge allocation.
    if n > b.remaining() {
        return Err(WireError::BadLength);
    }
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let object = ObjectId(get_u64(b)?);
        let op = decode_op(b)?;
        ops.push(ObjectOp::new(object, op));
    }
    let client = match get_u8(b)? {
        0 => None,
        1 => {
            let client = ClientId(get_u64(b)?);
            let seq = get_u64(b)?;
            Some((client, seq))
        }
        tag => return Err(WireError::BadTag { field: "client", tag }),
    };
    let t0 = match get_u8(b)? {
        0 => None,
        1 => Some(get_u64(b)?),
        tag => return Err(WireError::BadTag { field: "t0", tag }),
    };
    let mut mset = MSet::new(et, origin, ops);
    mset.order = order;
    mset.client = client;
    mset.t0 = t0;
    Ok(mset)
}

pub(crate) fn decode_op(b: &mut &[u8]) -> Result<Operation, WireError> {
    Ok(match get_u8(b)? {
        OP_READ => Operation::Read,
        OP_WRITE => Operation::Write(decode_value(b)?),
        OP_INCR => Operation::Incr(get_i64(b)?),
        OP_DECR => Operation::Decr(get_i64(b)?),
        OP_MULBY => Operation::MulBy(get_i64(b)?),
        OP_DIVBY => Operation::DivBy(get_i64(b)?),
        OP_INSERT => Operation::InsertElem(get_i64(b)?),
        OP_REMOVE => Operation::RemoveElem(get_i64(b)?),
        OP_TSWRITE => {
            let time = get_u64(b)?;
            let client = ClientId(get_u64(b)?);
            let v = decode_value(b)?;
            Operation::TimestampedWrite(VersionTs::new(time, client), v)
        }
        tag => return Err(WireError::BadTag { field: "op", tag }),
    })
}

pub(crate) fn decode_value(b: &mut &[u8]) -> Result<Value, WireError> {
    Ok(match get_u8(b)? {
        VAL_INT => Value::Int(get_i64(b)?),
        VAL_TEXT => Value::Text(decode_text(b)?),
        VAL_SET => {
            let len = get_u32(b)? as usize;
            if b.remaining() < len.saturating_mul(8) {
                return Err(WireError::BadLength);
            }
            let mut set = std::collections::BTreeSet::new();
            for _ in 0..len {
                set.insert(get_i64(b)?);
            }
            Value::Set(set)
        }
        tag => return Err(WireError::BadTag { field: "value", tag }),
    })
}

pub(crate) fn get_u8(b: &mut &[u8]) -> Result<u8, WireError> {
    if b.remaining() < 1 {
        return Err(WireError::Truncated);
    }
    Ok(b.get_u8())
}

pub(crate) fn get_u32(b: &mut &[u8]) -> Result<u32, WireError> {
    if b.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    Ok(b.get_u32())
}

pub(crate) fn get_u64(b: &mut &[u8]) -> Result<u64, WireError> {
    if b.remaining() < 8 {
        return Err(WireError::Truncated);
    }
    Ok(b.get_u64())
}

pub(crate) fn get_i64(b: &mut &[u8]) -> Result<i64, WireError> {
    if b.remaining() < 8 {
        return Err(WireError::Truncated);
    }
    Ok(b.get_i64())
}

// ---------------------------------------------------------------------------
// esr-rpc control frames
// ---------------------------------------------------------------------------
//
// The networked runtime (`esrd` / `esrctl`, `crates/net::rpc`) speaks a
// frame protocol whose payloads are encoded here, next to the MSet codec
// they embed. Same guarantees as the MSet codec: self-describing tagged
// binary, big-endian, and **total decoding** — any byte slice yields a
// [`Frame`] or a [`WireError`], never a panic, so a hostile or corrupt
// peer can at worst be disconnected.

const FRAME_HELLO: u8 = 0x01;
const FRAME_MSET: u8 = 0x02;
const FRAME_ACK: u8 = 0x03;
const FRAME_APPLIED: u8 = 0x04;
const FRAME_COMPLETE: u8 = 0x05;
const FRAME_VTNC: u8 = 0x06;
const FRAME_DECISION: u8 = 0x07;
// 0x08 is retired (the pre-failover control snapshot) and must keep
// decoding to `BadTag`.
const FRAME_PING: u8 = 0x09;
const FRAME_START_VIEW_CHANGE: u8 = 0x0A;
const FRAME_DO_VIEW_CHANGE: u8 = 0x0B;
const FRAME_START_VIEW: u8 = 0x0C;
const FRAME_FORWARD_DECISION: u8 = 0x0D;
const FRAME_SNAPSHOT_REQUEST: u8 = 0x0E;
const FRAME_SNAPSHOT_CHUNK: u8 = 0x0F;
const FRAME_SUBMIT: u8 = 0x10;
const FRAME_SUBMIT_OK: u8 = 0x11;
const FRAME_QUERY: u8 = 0x12;
const FRAME_QUERY_OK: u8 = 0x13;
const FRAME_SNAPSHOT: u8 = 0x14;
const FRAME_SNAPSHOT_OK: u8 = 0x15;
const FRAME_STATUS: u8 = 0x16;
const FRAME_STATUS_OK: u8 = 0x17;
// 0x18/0x19 are retired (the audit-log request and reply) and must
// keep decoding to `BadTag`.
const FRAME_DECISION_OK: u8 = 0x1A;
const FRAME_METRICS: u8 = 0x1B;
const FRAME_METRICS_OK: u8 = 0x1C;
const FRAME_CHECKPOINT: u8 = 0x1F;
const FRAME_CHECKPOINT_OK: u8 = 0x20;
const FRAME_EVENT_QUERY: u8 = 0x21;
const FRAME_EVENT_OK: u8 = 0x22;

/// One message of the esr-rpc protocol.
///
/// Peer-plane frames (`Hello` through `SnapshotChunk`) travel between
/// `esrd` daemons over durable per-link queues; client-plane frames
/// (`Submit` onward) are request/reply pairs between `esrctl` (or the
/// client library) and one daemon.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Peer handshake: the dialing site announces its id and boot epoch
    /// (incremented at every daemon start, so the coordinator can spot a
    /// restarted incarnation and resend its control snapshot).
    Hello {
        /// The dialing site.
        site: SiteId,
        /// That site's boot count.
        epoch: u64,
    },
    /// Update propagation: one MSet, exactly as the simulator and the
    /// model ship it.
    MSet(MSet),
    /// Durable-link acknowledgement: the receiver journalled and applied
    /// the frame carried by queue entry `entry`; the sender may retire it.
    Ack {
        /// The sender-side queue entry being acknowledged.
        entry: u64,
    },
    /// Completion evidence for the coordinator's tracker: `site` has
    /// applied `et` (carrying the max written version for VTNC).
    Applied {
        /// The reporting site.
        site: SiteId,
        /// The applied update ET.
        et: EtId,
        /// Its max timestamped-write version, when RITU-MV needs one.
        version: Option<VersionTs>,
    },
    /// Completion notice: every site has applied `et` (releases COMMU /
    /// RITU lock-counters).
    Complete {
        /// The fully-propagated ET.
        et: EtId,
    },
    /// VTNC certificate: every version up to `ts` is installed at every
    /// site; strict RITU-MV reads may serve it.
    Vtnc {
        /// The certified horizon.
        ts: VersionTs,
    },
    /// COMPE outcome decision for `et`.
    Decision {
        /// The decided ET.
        et: EtId,
        /// `true` = commit, `false` = abort (compensate).
        commit: bool,
    },
    /// Coordinator heartbeat: the coordinator of `view` is alive.
    /// Followers count missed pings to drive failure suspicion; a
    /// receiver that is *ahead* of the pinger replies with its view
    /// snapshot so a stale ex-coordinator catches up fast.
    Ping {
        /// The pinger's current view.
        view: u64,
        /// The pinging site (the coordinator of `view`).
        from: SiteId,
    },
    /// View-change phase 1: `from` suspects the coordinator of its
    /// current view and proposes moving to `view`. A site that collects
    /// a majority of these joins phase 2.
    StartViewChange {
        /// The proposed (higher) view.
        view: u64,
        /// The proposing site.
        from: SiteId,
    },
    /// View-change phase 2: `from` has seen a majority of
    /// `StartViewChange(view)` and sends its control-plane evidence to
    /// the new coordinator (`view % sites`), who installs the view once
    /// a majority of these arrive.
    DoViewChange {
        /// The view being established.
        view: u64,
        /// The reporting site.
        from: SiteId,
        /// Every completion, decision and horizon `from` has seen
        /// (boxed so a ledger does not set the size of every frame).
        evidence: Box<Evidence>,
    },
    /// View-change phase 3 (and the coordinator's Hello answer): the
    /// new coordinator announces `view` together with its ledger — the
    /// union of the majority's. Receivers at a lower view install it,
    /// drop any coordinator role, and re-announce their applied ETs;
    /// all replay is idempotent.
    StartView {
        /// The established view.
        view: u64,
        /// The sender's control-plane ledger.
        evidence: Box<Evidence>,
    },
    /// A client's COMPE decision being forwarded toward the coordinator
    /// of the sender's current view. Unlike the `Decision` broadcast, a
    /// non-coordinator receiver re-forwards this toward *its* view's
    /// coordinator, so a decision in flight across a view change is
    /// never stranded.
    ForwardDecision {
        /// The decided ET.
        et: EtId,
        /// `true` = commit, `false` = abort (compensate).
        commit: bool,
    },
    /// Snapshot catch-up request: a rejoining (or freshly wiped) site
    /// asks a peer for its newest installed checkpoint container,
    /// starting at byte `offset`. Answered with [`Frame::SnapshotChunk`].
    SnapshotRequest {
        /// Byte offset into the serving peer's snapshot container.
        offset: u64,
    },
    /// One chunk of a checkpoint container. `total_len == 0` means the
    /// serving peer has no checkpoint to offer (and `bytes` is empty).
    SnapshotChunk {
        /// Total container size in bytes at the serving peer.
        total_len: u64,
        /// Byte offset of this chunk within the container.
        offset: u64,
        /// The chunk payload.
        bytes: Vec<u8>,
    },
    /// Client → daemon: submit a fully-stamped update MSet originating
    /// at this site (ET id, order tag, and version stamps are assigned
    /// by the client library).
    Submit(MSet),
    /// Reply to [`Frame::Submit`].
    SubmitOk {
        /// The accepted ET.
        et: EtId,
    },
    /// Client → daemon: run a query ET against the local replica.
    Query {
        /// Objects to read.
        read_set: Vec<ObjectId>,
        /// The epsilon budget (`u64::MAX` = unbounded).
        epsilon_limit: u64,
    },
    /// Reply to [`Frame::Query`].
    QueryOk(QueryOutcome),
    /// Client → daemon: request the full replica snapshot.
    Snapshot,
    /// Reply to [`Frame::Snapshot`] (sorted by object id).
    SnapshotOk {
        /// The replica contents.
        entries: Vec<(ObjectId, Value)>,
    },
    /// Client → daemon: settledness probe (the quiesce building block).
    Status,
    /// Reply to [`Frame::Status`].
    StatusOk {
        /// Site state machine settled (nothing held back or at risk).
        settled: bool,
        /// Unacknowledged entries across all outbound links.
        outbound_pending: u64,
        /// The daemon's boot epoch.
        epoch: u64,
        /// The daemon's current view number.
        view: u64,
        /// Does this daemon hold the coordinator role right now?
        coordinator: bool,
        /// Sequence number of the newest installed checkpoint (0 = none).
        ckpt_seq: u64,
        /// Journalled MSets that checkpoint covers.
        ckpt_covered: u64,
    },
    /// Reply to [`Frame::Decision`] on the client plane.
    DecisionOk {
        /// The decided ET.
        et: EtId,
    },
    /// Client → daemon: scrape the metrics registry.
    Metrics,
    /// Reply to [`Frame::Metrics`]: the registry rendered as Prometheus
    /// text exposition format.
    MetricsOk {
        /// The rendered scrape body.
        text: String,
    },
    /// Client → daemon: take a checkpoint now, regardless of the
    /// byte-interval policy.
    Checkpoint,
    /// Reply to [`Frame::Checkpoint`] once the snapshot is durably
    /// installed.
    CheckpointOk {
        /// The installed checkpoint's sequence number.
        seq: u64,
        /// Journalled MSets the checkpoint covers.
        covered: u64,
    },
    /// Client → daemon: dump the daemon's event ring. `esrctl trace`
    /// asks for everything; `esrctl spans` asks every site for one ET's
    /// lifecycle records and merges them.
    EventQuery {
        /// `u64::MAX` selects every retained event; any other value
        /// selects the span records of that raw ET id (VTNC horizon
        /// spans, which carry no ET, always match).
        et: u64,
    },
    /// Reply to [`Frame::EventQuery`]: the matching retained events,
    /// oldest first, as `(ring_seq, micros, event)`, plus how many
    /// older events the bounded ring already evicted.
    EventOk {
        /// Events evicted before the oldest retained one.
        dropped: u64,
        /// The matching retained events.
        events: Vec<(u64, u64, Event)>,
    },
}

fn encode_text(b: &mut BytesMut, s: &str) {
    b.put_u32(s.len() as u32);
    b.put_slice(s.as_bytes());
}

fn decode_text(b: &mut &[u8]) -> Result<String, WireError> {
    let len = get_u32(b)? as usize;
    if b.len() < len {
        return Err(WireError::BadLength);
    }
    let (raw, rest) = b.split_at(len);
    let s = std::str::from_utf8(raw).map_err(|_| WireError::BadUtf8)?;
    *b = rest;
    Ok(s.to_owned())
}

fn decode_bytes(b: &mut &[u8]) -> Result<Vec<u8>, WireError> {
    let n = get_count(b, 1)?;
    let (raw, rest) = b.split_at(n);
    *b = rest;
    Ok(raw.to_vec())
}

pub(crate) fn encode_version_opt(b: &mut BytesMut, v: &Option<VersionTs>) {
    match v {
        None => b.put_u8(0),
        Some(ts) => {
            b.put_u8(1);
            b.put_u64(ts.time);
            b.put_u64(ts.client.raw());
        }
    }
}

pub(crate) fn decode_version_opt(b: &mut &[u8]) -> Result<Option<VersionTs>, WireError> {
    match get_u8(b)? {
        0 => Ok(None),
        1 => {
            let time = get_u64(b)?;
            let client = ClientId(get_u64(b)?);
            Ok(Some(VersionTs::new(time, client)))
        }
        tag => Err(WireError::BadTag { field: "option", tag }),
    }
}

const SPAN_STAGES: [SpanStage; 12] = [
    SpanStage::Submit,
    SpanStage::Enqueue,
    SpanStage::Deliver,
    SpanStage::Held,
    SpanStage::Apply,
    SpanStage::Replay,
    SpanStage::CompleteCert,
    SpanStage::Complete,
    SpanStage::VtncCert,
    SpanStage::Vtnc,
    SpanStage::DecisionCert,
    SpanStage::Decision,
];

fn span_stage_tag(stage: SpanStage) -> u8 {
    SPAN_STAGES
        .iter()
        .position(|s| *s == stage)
        .unwrap_or_default() as u8
}

pub(crate) fn encode_u64_opt(b: &mut BytesMut, v: Option<u64>) {
    match v {
        None => b.put_u8(0),
        Some(v) => {
            b.put_u8(1);
            b.put_u64(v);
        }
    }
}

pub(crate) fn decode_u64_opt(b: &mut &[u8]) -> Result<Option<u64>, WireError> {
    match get_u8(b)? {
        0 => Ok(None),
        1 => Ok(Some(get_u64(b)?)),
        tag => Err(WireError::BadTag { field: "option", tag }),
    }
}

fn encode_span_rec(b: &mut BytesMut, rec: &SpanRec) {
    b.put_u8(span_stage_tag(rec.stage));
    encode_u64_opt(b, rec.et.map(EtId::raw));
    encode_u64_opt(b, rec.peer.map(SiteId::raw));
    encode_version_opt(b, &rec.version);
    encode_u64_opt(b, rec.gseq.map(SeqNo::raw));
    encode_u64_opt(b, rec.t0);
    match rec.commit {
        None => b.put_u8(0),
        Some(c) => {
            b.put_u8(1);
            b.put_u8(u8::from(c));
        }
    }
}

fn decode_span_rec(b: &mut &[u8]) -> Result<SpanRec, WireError> {
    let tag = get_u8(b)?;
    let stage = *SPAN_STAGES
        .get(tag as usize)
        .ok_or(WireError::BadTag { field: "stage", tag })?;
    let et = decode_u64_opt(b)?.map(EtId);
    let peer = decode_u64_opt(b)?.map(SiteId);
    let version = decode_version_opt(b)?;
    let gseq = decode_u64_opt(b)?.map(SeqNo);
    let t0 = decode_u64_opt(b)?;
    let commit = match get_u8(b)? {
        0 => None,
        1 => Some(decode_bool(b)?),
        tag => return Err(WireError::BadTag { field: "option", tag }),
    };
    Ok(SpanRec {
        stage,
        et,
        peer,
        version,
        gseq,
        t0,
        commit,
    })
}

const EVENT_SPAN: u8 = 0;
const EVENT_DUPLICATE_DELIVERY: u8 = 1;
const EVENT_DUPLICATE_SUBMIT: u8 = 2;
const EVENT_HELLO: u8 = 3;
const EVENT_VIEW_CHANGE_START: u8 = 4;
const EVENT_VIEW_INSTALL: u8 = 5;
const EVENT_CKPT_CUT: u8 = 6;
const EVENT_CKPT_RESTORE: u8 = 7;
const EVENT_CKPT_INSTALL: u8 = 8;
const EVENT_CKPT_TRUNCATE: u8 = 9;
const EVENT_CKPT_CATCH_UP: u8 = 10;
const EVENT_CKPT_FAILED: u8 = 11;
const EVENT_BOOT: u8 = 12;

fn put_tagged(b: &mut BytesMut, tag: u8, fields: &[u64]) {
    b.put_u8(tag);
    for f in fields {
        b.put_u64(*f);
    }
}

fn encode_event(b: &mut BytesMut, event: &Event) {
    match event {
        Event::Span(rec) => {
            put_tagged(b, EVENT_SPAN, &[]);
            encode_span_rec(b, rec);
        }
        Event::DuplicateDelivery { et } => {
            put_tagged(b, EVENT_DUPLICATE_DELIVERY, &[et.raw()]);
        }
        Event::DuplicateSubmit { client, seq, et } => {
            put_tagged(b, EVENT_DUPLICATE_SUBMIT, &[client.raw(), *seq, et.raw()]);
        }
        Event::Hello { site, epoch } => put_tagged(b, EVENT_HELLO, &[site.raw(), *epoch]),
        Event::ViewChangeStart { view } => put_tagged(b, EVENT_VIEW_CHANGE_START, &[*view]),
        Event::ViewInstall { view, coordinator } => {
            put_tagged(b, EVENT_VIEW_INSTALL, &[*view, coordinator.raw()]);
        }
        Event::CkptCut { covered } => put_tagged(b, EVENT_CKPT_CUT, &[*covered]),
        Event::CkptRestore { covered, view } => {
            put_tagged(b, EVENT_CKPT_RESTORE, &[*covered, *view]);
        }
        Event::CkptInstall { seq, covered } => {
            put_tagged(b, EVENT_CKPT_INSTALL, &[*seq, *covered]);
        }
        Event::CkptTruncate { through, retired } => {
            put_tagged(b, EVENT_CKPT_TRUNCATE, &[*through, *retired]);
        }
        Event::CkptCatchUp { seq, covered, from } => {
            put_tagged(b, EVENT_CKPT_CATCH_UP, &[*seq, *covered, from.raw()]);
        }
        Event::CkptFailed { seq, detail } => {
            put_tagged(b, EVENT_CKPT_FAILED, &[*seq]);
            encode_text(b, detail);
        }
        Event::Boot {
            epoch,
            snapshot,
            replayed,
            view,
        } => {
            put_tagged(b, EVENT_BOOT, &[*epoch, *replayed, *view]);
            match snapshot {
                None => b.put_u8(0),
                Some((seq, covered)) => put_tagged(b, 1, &[*seq, *covered]),
            }
        }
    }
}

fn decode_event(b: &mut &[u8]) -> Result<Event, WireError> {
    Ok(match get_u8(b)? {
        EVENT_SPAN => Event::Span(decode_span_rec(b)?),
        EVENT_DUPLICATE_DELIVERY => Event::DuplicateDelivery {
            et: EtId(get_u64(b)?),
        },
        EVENT_DUPLICATE_SUBMIT => Event::DuplicateSubmit {
            client: ClientId(get_u64(b)?),
            seq: get_u64(b)?,
            et: EtId(get_u64(b)?),
        },
        EVENT_HELLO => Event::Hello {
            site: SiteId(get_u64(b)?),
            epoch: get_u64(b)?,
        },
        EVENT_VIEW_CHANGE_START => Event::ViewChangeStart { view: get_u64(b)? },
        EVENT_VIEW_INSTALL => Event::ViewInstall {
            view: get_u64(b)?,
            coordinator: SiteId(get_u64(b)?),
        },
        EVENT_CKPT_CUT => Event::CkptCut {
            covered: get_u64(b)?,
        },
        EVENT_CKPT_RESTORE => Event::CkptRestore {
            covered: get_u64(b)?,
            view: get_u64(b)?,
        },
        EVENT_CKPT_INSTALL => Event::CkptInstall {
            seq: get_u64(b)?,
            covered: get_u64(b)?,
        },
        EVENT_CKPT_TRUNCATE => Event::CkptTruncate {
            through: get_u64(b)?,
            retired: get_u64(b)?,
        },
        EVENT_CKPT_CATCH_UP => Event::CkptCatchUp {
            seq: get_u64(b)?,
            covered: get_u64(b)?,
            from: SiteId(get_u64(b)?),
        },
        EVENT_CKPT_FAILED => Event::CkptFailed {
            seq: get_u64(b)?,
            detail: decode_text(b)?,
        },
        EVENT_BOOT => {
            let (epoch, replayed, view) = (get_u64(b)?, get_u64(b)?, get_u64(b)?);
            let snapshot = match get_u8(b)? {
                0 => None,
                1 => Some((get_u64(b)?, get_u64(b)?)),
                tag => return Err(WireError::BadTag { field: "option", tag }),
            };
            Event::Boot {
                epoch,
                snapshot,
                replayed,
                view,
            }
        }
        tag => return Err(WireError::BadTag { field: "event", tag }),
    })
}

/// Reads an element count and checks it against the bytes actually
/// left (at `min_elem` bytes each), so a corrupt count cannot trigger a
/// huge allocation.
pub(crate) fn get_count(b: &mut &[u8], min_elem: usize) -> Result<usize, WireError> {
    let n = get_u32(b)? as usize;
    if n.saturating_mul(min_elem) > b.remaining() {
        return Err(WireError::BadLength);
    }
    Ok(n)
}

/// Encodes a control-plane ledger: the payload of `DoViewChange` and
/// `StartView`, and the control section of a checkpoint image.
pub(crate) fn encode_evidence(b: &mut BytesMut, evidence: &Evidence) {
    let completed = evidence.completed();
    b.put_u32(completed.len() as u32);
    for et in completed {
        b.put_u64(et.raw());
    }
    let decisions = evidence.decisions();
    b.put_u32(decisions.len() as u32);
    for (et, commit) in decisions {
        b.put_u64(et.raw());
        b.put_u8(u8::from(commit));
    }
    encode_version_opt(b, &evidence.vtnc());
}

pub(crate) fn decode_evidence(b: &mut &[u8]) -> Result<Evidence, WireError> {
    let mut evidence = Evidence::default();
    for _ in 0..get_count(b, 8)? {
        evidence.complete(EtId(get_u64(b)?));
    }
    for _ in 0..get_count(b, 9)? {
        let et = EtId(get_u64(b)?);
        evidence.decide(et, decode_bool(b)?);
    }
    if let Some(ts) = decode_version_opt(b)? {
        evidence.advance_vtnc(ts);
    }
    Ok(evidence)
}

/// Encodes a frame into a self-contained byte payload.
pub fn encode_frame(frame: &Frame) -> Bytes {
    let mut b = BytesMut::with_capacity(64);
    match frame {
        Frame::Hello { site, epoch } => {
            b.put_u8(FRAME_HELLO);
            b.put_u64(site.raw());
            b.put_u64(*epoch);
        }
        Frame::MSet(mset) => {
            b.put_u8(FRAME_MSET);
            encode_mset_into(&mut b, mset);
        }
        Frame::Ack { entry } => {
            b.put_u8(FRAME_ACK);
            b.put_u64(*entry);
        }
        Frame::Applied { site, et, version } => {
            b.put_u8(FRAME_APPLIED);
            b.put_u64(site.raw());
            b.put_u64(et.raw());
            encode_version_opt(&mut b, version);
        }
        Frame::Complete { et } => {
            b.put_u8(FRAME_COMPLETE);
            b.put_u64(et.raw());
        }
        Frame::Vtnc { ts } => {
            b.put_u8(FRAME_VTNC);
            b.put_u64(ts.time);
            b.put_u64(ts.client.raw());
        }
        Frame::Decision { et, commit } => {
            b.put_u8(FRAME_DECISION);
            b.put_u64(et.raw());
            b.put_u8(u8::from(*commit));
        }
        Frame::Ping { view, from } => {
            b.put_u8(FRAME_PING);
            b.put_u64(*view);
            b.put_u64(from.raw());
        }
        Frame::StartViewChange { view, from } => {
            b.put_u8(FRAME_START_VIEW_CHANGE);
            b.put_u64(*view);
            b.put_u64(from.raw());
        }
        Frame::DoViewChange {
            view,
            from,
            evidence,
        } => {
            b.put_u8(FRAME_DO_VIEW_CHANGE);
            b.put_u64(*view);
            b.put_u64(from.raw());
            encode_evidence(&mut b, evidence);
        }
        Frame::StartView { view, evidence } => {
            b.put_u8(FRAME_START_VIEW);
            b.put_u64(*view);
            encode_evidence(&mut b, evidence);
        }
        Frame::ForwardDecision { et, commit } => {
            b.put_u8(FRAME_FORWARD_DECISION);
            b.put_u64(et.raw());
            b.put_u8(u8::from(*commit));
        }
        Frame::SnapshotRequest { offset } => {
            b.put_u8(FRAME_SNAPSHOT_REQUEST);
            b.put_u64(*offset);
        }
        Frame::SnapshotChunk {
            total_len,
            offset,
            bytes,
        } => {
            b.put_u8(FRAME_SNAPSHOT_CHUNK);
            b.put_u64(*total_len);
            b.put_u64(*offset);
            b.put_u32(bytes.len() as u32);
            b.put_slice(bytes);
        }
        Frame::Submit(mset) => {
            b.put_u8(FRAME_SUBMIT);
            encode_mset_into(&mut b, mset);
        }
        Frame::SubmitOk { et } => {
            b.put_u8(FRAME_SUBMIT_OK);
            b.put_u64(et.raw());
        }
        Frame::Query {
            read_set,
            epsilon_limit,
        } => {
            b.put_u8(FRAME_QUERY);
            b.put_u64(*epsilon_limit);
            b.put_u32(read_set.len() as u32);
            for o in read_set {
                b.put_u64(o.raw());
            }
        }
        Frame::QueryOk(out) => {
            b.put_u8(FRAME_QUERY_OK);
            b.put_u8(u8::from(out.admitted));
            b.put_u64(out.charged);
            b.put_u32(out.values.len() as u32);
            for v in &out.values {
                encode_value(&mut b, v);
            }
        }
        Frame::Snapshot => {
            b.put_u8(FRAME_SNAPSHOT);
        }
        Frame::SnapshotOk { entries } => {
            b.put_u8(FRAME_SNAPSHOT_OK);
            b.put_u32(entries.len() as u32);
            for (o, v) in entries {
                b.put_u64(o.raw());
                encode_value(&mut b, v);
            }
        }
        Frame::Status => {
            b.put_u8(FRAME_STATUS);
        }
        Frame::StatusOk {
            settled,
            outbound_pending,
            epoch,
            view,
            coordinator,
            ckpt_seq,
            ckpt_covered,
        } => {
            b.put_u8(FRAME_STATUS_OK);
            b.put_u8(u8::from(*settled));
            b.put_u64(*outbound_pending);
            b.put_u64(*epoch);
            b.put_u64(*view);
            b.put_u8(u8::from(*coordinator));
            b.put_u64(*ckpt_seq);
            b.put_u64(*ckpt_covered);
        }
        Frame::DecisionOk { et } => {
            b.put_u8(FRAME_DECISION_OK);
            b.put_u64(et.raw());
        }
        Frame::Metrics => {
            b.put_u8(FRAME_METRICS);
        }
        Frame::MetricsOk { text } => {
            b.put_u8(FRAME_METRICS_OK);
            encode_text(&mut b, text);
        }
        Frame::Checkpoint => {
            b.put_u8(FRAME_CHECKPOINT);
        }
        Frame::CheckpointOk { seq, covered } => {
            b.put_u8(FRAME_CHECKPOINT_OK);
            b.put_u64(*seq);
            b.put_u64(*covered);
        }
        Frame::EventQuery { et } => {
            b.put_u8(FRAME_EVENT_QUERY);
            b.put_u64(*et);
        }
        Frame::EventOk { dropped, events } => {
            b.put_u8(FRAME_EVENT_OK);
            b.put_u64(*dropped);
            b.put_u32(events.len() as u32);
            for (seq, micros, event) in events {
                b.put_u64(*seq);
                b.put_u64(*micros);
                encode_event(&mut b, event);
            }
        }
    }
    b.freeze()
}

/// Decodes a frame produced by [`encode_frame`]. Total: any byte slice
/// yields a frame or an error, never a panic.
pub fn decode_frame(payload: &Bytes) -> Result<Frame, WireError> {
    let mut b = payload.as_ref();
    let frame = match get_u8(&mut b)? {
        FRAME_HELLO => Frame::Hello {
            site: SiteId(get_u64(&mut b)?),
            epoch: get_u64(&mut b)?,
        },
        FRAME_MSET => Frame::MSet(decode_mset_from(&mut b)?),
        FRAME_ACK => Frame::Ack {
            entry: get_u64(&mut b)?,
        },
        FRAME_APPLIED => Frame::Applied {
            site: SiteId(get_u64(&mut b)?),
            et: EtId(get_u64(&mut b)?),
            version: decode_version_opt(&mut b)?,
        },
        FRAME_COMPLETE => Frame::Complete {
            et: EtId(get_u64(&mut b)?),
        },
        FRAME_VTNC => {
            let time = get_u64(&mut b)?;
            let client = ClientId(get_u64(&mut b)?);
            Frame::Vtnc {
                ts: VersionTs::new(time, client),
            }
        }
        FRAME_DECISION => Frame::Decision {
            et: EtId(get_u64(&mut b)?),
            commit: decode_bool(&mut b)?,
        },
        FRAME_PING => Frame::Ping {
            view: get_u64(&mut b)?,
            from: SiteId(get_u64(&mut b)?),
        },
        FRAME_START_VIEW_CHANGE => Frame::StartViewChange {
            view: get_u64(&mut b)?,
            from: SiteId(get_u64(&mut b)?),
        },
        FRAME_DO_VIEW_CHANGE => Frame::DoViewChange {
            view: get_u64(&mut b)?,
            from: SiteId(get_u64(&mut b)?),
            evidence: Box::new(decode_evidence(&mut b)?),
        },
        FRAME_START_VIEW => Frame::StartView {
            view: get_u64(&mut b)?,
            evidence: Box::new(decode_evidence(&mut b)?),
        },
        FRAME_FORWARD_DECISION => Frame::ForwardDecision {
            et: EtId(get_u64(&mut b)?),
            commit: decode_bool(&mut b)?,
        },
        FRAME_SNAPSHOT_REQUEST => Frame::SnapshotRequest {
            offset: get_u64(&mut b)?,
        },
        FRAME_SNAPSHOT_CHUNK => Frame::SnapshotChunk {
            total_len: get_u64(&mut b)?,
            offset: get_u64(&mut b)?,
            bytes: decode_bytes(&mut b)?,
        },
        FRAME_SUBMIT => Frame::Submit(decode_mset_from(&mut b)?),
        FRAME_SUBMIT_OK => Frame::SubmitOk {
            et: EtId(get_u64(&mut b)?),
        },
        FRAME_QUERY => {
            let epsilon_limit = get_u64(&mut b)?;
            let n = get_count(&mut b, 8)?;
            let mut read_set = Vec::with_capacity(n);
            for _ in 0..n {
                read_set.push(ObjectId(get_u64(&mut b)?));
            }
            Frame::Query {
                read_set,
                epsilon_limit,
            }
        }
        FRAME_QUERY_OK => {
            let admitted = decode_bool(&mut b)?;
            let charged = get_u64(&mut b)?;
            let n = get_count(&mut b, 5)?;
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(decode_value(&mut b)?);
            }
            Frame::QueryOk(QueryOutcome {
                values,
                charged,
                admitted,
            })
        }
        FRAME_SNAPSHOT => Frame::Snapshot,
        FRAME_SNAPSHOT_OK => {
            let n = get_count(&mut b, 13)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let o = ObjectId(get_u64(&mut b)?);
                entries.push((o, decode_value(&mut b)?));
            }
            Frame::SnapshotOk { entries }
        }
        FRAME_STATUS => Frame::Status,
        FRAME_STATUS_OK => Frame::StatusOk {
            settled: decode_bool(&mut b)?,
            outbound_pending: get_u64(&mut b)?,
            epoch: get_u64(&mut b)?,
            view: get_u64(&mut b)?,
            coordinator: decode_bool(&mut b)?,
            ckpt_seq: get_u64(&mut b)?,
            ckpt_covered: get_u64(&mut b)?,
        },
        FRAME_DECISION_OK => Frame::DecisionOk {
            et: EtId(get_u64(&mut b)?),
        },
        FRAME_METRICS => Frame::Metrics,
        FRAME_METRICS_OK => Frame::MetricsOk {
            text: decode_text(&mut b)?,
        },
        FRAME_CHECKPOINT => Frame::Checkpoint,
        FRAME_CHECKPOINT_OK => Frame::CheckpointOk {
            seq: get_u64(&mut b)?,
            covered: get_u64(&mut b)?,
        },
        FRAME_EVENT_QUERY => Frame::EventQuery {
            et: get_u64(&mut b)?,
        },
        FRAME_EVENT_OK => {
            let dropped = get_u64(&mut b)?;
            // Each event is at least 24 bytes: two u64s, its tag, and
            // the smallest body — a span with every option absent
            // (stage byte + six absent-option bytes).
            let n = get_count(&mut b, 24)?;
            let mut events = Vec::with_capacity(n);
            for _ in 0..n {
                let seq = get_u64(&mut b)?;
                let micros = get_u64(&mut b)?;
                events.push((seq, micros, decode_event(&mut b)?));
            }
            Frame::EventOk { dropped, events }
        }
        tag => return Err(WireError::BadTag { field: "frame", tag }),
    };
    Ok(frame)
}

pub(crate) fn decode_bool(b: &mut &[u8]) -> Result<bool, WireError> {
    match get_u8(b)? {
        0 => Ok(false),
        1 => Ok(true),
        tag => Err(WireError::BadTag { field: "bool", tag }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn roundtrip(mset: &MSet) {
        let bytes = encode_mset(mset);
        let back = decode_mset(&bytes).expect("decode");
        assert_eq!(&back, mset);
    }

    #[test]
    fn every_operation_variant_round_trips() {
        let ops = vec![
            ObjectOp::new(ObjectId(0), Operation::Read),
            ObjectOp::new(ObjectId(1), Operation::Write(Value::Int(-7))),
            ObjectOp::new(ObjectId(2), Operation::Incr(i64::MAX)),
            ObjectOp::new(ObjectId(3), Operation::Decr(i64::MIN + 1)),
            ObjectOp::new(ObjectId(4), Operation::MulBy(3)),
            ObjectOp::new(ObjectId(5), Operation::DivBy(-2)),
            ObjectOp::new(ObjectId(6), Operation::InsertElem(42)),
            ObjectOp::new(ObjectId(7), Operation::RemoveElem(-42)),
            ObjectOp::new(
                ObjectId(8),
                Operation::TimestampedWrite(
                    VersionTs::new(99, ClientId(3)),
                    Value::Text("héllo".into()),
                ),
            ),
            ObjectOp::new(
                ObjectId(9),
                Operation::Write(Value::Set(BTreeSet::from([-1, 0, 7]))),
            ),
        ];
        roundtrip(&MSet::new(EtId(12), SiteId(2), ops));
    }

    #[test]
    fn every_order_tag_round_trips() {
        let ops = vec![ObjectOp::new(ObjectId(0), Operation::Incr(1))];
        roundtrip(&MSet::new(EtId(1), SiteId(0), ops.clone()));
        roundtrip(&MSet::new(EtId(2), SiteId(1), ops.clone()).sequenced(SeqNo(77)));
        roundtrip(
            &MSet::new(EtId(3), SiteId(2), ops)
                .lamport(LamportTs::new(5, SiteId(2)), SeqNo(4)),
        );
    }

    #[test]
    fn empty_mset_round_trips() {
        roundtrip(&MSet::new(EtId(0), SiteId(0), vec![]));
    }

    #[test]
    fn client_identity_round_trips() {
        let ops = vec![ObjectOp::new(ObjectId(0), Operation::Incr(1))];
        roundtrip(&MSet::new(EtId(4), SiteId(1), ops).from_client(ClientId(9), 17));
    }

    #[test]
    fn truncation_at_any_prefix_is_an_error_not_a_panic() {
        let mset = MSet::new(
            EtId(5),
            SiteId(1),
            vec![
                ObjectOp::new(ObjectId(1), Operation::Write(Value::Text("abc".into()))),
                ObjectOp::new(
                    ObjectId(2),
                    Operation::TimestampedWrite(
                        VersionTs::new(8, ClientId(1)),
                        Value::Set(BTreeSet::from([1, 2])),
                    ),
                ),
            ],
        )
        .sequenced(SeqNo(3));
        let bytes = encode_mset(&mset);
        for cut in 0..bytes.len() {
            let prefix = Bytes::copy_from_slice(&bytes.as_slice()[..cut]);
            assert!(
                decode_mset(&prefix).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
        assert!(decode_mset(&bytes).is_ok());
    }

    #[test]
    fn bad_tags_are_rejected() {
        let mset = MSet::new(
            EtId(1),
            SiteId(0),
            vec![ObjectOp::new(ObjectId(0), Operation::Incr(1))],
        );
        let mut raw = encode_mset(&mset).to_vec();
        // Byte 16 is the order tag.
        raw[16] = 0xEE;
        assert!(matches!(
            decode_mset(&Bytes::from(raw)),
            Err(WireError::BadTag { field: "order", .. })
        ));
    }

    #[test]
    fn corrupt_op_count_is_rejected_without_allocation_blowup() {
        let mset = MSet::new(EtId(1), SiteId(0), vec![]);
        let mut raw = encode_mset(&mset).to_vec();
        // The op count sits just before the trailing client + t0 bytes.
        let n = raw.len();
        raw[n - 6..n - 2].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(decode_mset(&Bytes::from(raw)), Err(WireError::BadLength));
    }

    #[test]
    fn trace_context_round_trips() {
        let ops = vec![ObjectOp::new(ObjectId(0), Operation::Incr(1))];
        roundtrip(&MSet::new(EtId(6), SiteId(2), ops.clone()).traced(1_723_000_000_000_000));
        roundtrip(
            &MSet::new(EtId(7), SiteId(0), ops)
                .from_client(ClientId(3), 8)
                .traced(u64::MAX),
        );
    }

    fn roundtrip_frame(frame: &Frame) {
        let bytes = encode_frame(frame);
        let back = decode_frame(&bytes).expect("decode frame");
        assert_eq!(&back, frame);
    }

    /// One `(ring seq, micros, event)` per [`Event`] variant, spans in
    /// several shapes.
    fn every_event() -> Vec<(u64, u64, Event)> {
        let v5 = VersionTs::new(5, ClientId(1));
        let events = vec![
            Event::Span(SpanRec::new(SpanStage::Submit, EtId(12)).with_t0(Some(990))),
            Event::Span(SpanRec::new(SpanStage::Enqueue, EtId(12)).to_peer(SiteId(1))),
            Event::Span(
                SpanRec::new(SpanStage::Apply, EtId(12))
                    .with_version(Some(v5))
                    .with_gseq(Some(SeqNo(4))),
            ),
            Event::Span(SpanRec::vtnc(SpanStage::Vtnc, v5)),
            Event::Span(SpanRec::new(SpanStage::Decision, EtId(13)).with_commit(false)),
            Event::DuplicateDelivery { et: EtId(12) },
            Event::DuplicateSubmit {
                client: ClientId(7),
                seq: 3,
                et: EtId(12),
            },
            Event::Hello {
                site: SiteId(2),
                epoch: 4,
            },
            Event::ViewChangeStart { view: 1 },
            Event::ViewInstall {
                view: 1,
                coordinator: SiteId(1),
            },
            Event::CkptCut { covered: 9 },
            Event::CkptRestore { covered: 9, view: 1 },
            Event::CkptInstall { seq: 2, covered: 9 },
            Event::CkptTruncate {
                through: 8,
                retired: 8,
            },
            Event::CkptCatchUp {
                seq: 2,
                covered: 9,
                from: SiteId(0),
            },
            Event::CkptFailed {
                seq: 3,
                detail: "No space left on device".to_owned(),
            },
            Event::Boot {
                epoch: 2,
                snapshot: Some((2, 9)),
                replayed: 1,
                view: 1,
            },
            Event::Boot {
                epoch: 1,
                snapshot: None,
                replayed: 0,
                view: 0,
            },
        ];
        events
            .into_iter()
            .enumerate()
            .map(|(i, e)| (7 + i as u64, 1_000 + 10 * i as u64, e))
            .collect()
    }

    fn evidence(
        completed: &[u64],
        decisions: &[(u64, bool)],
        vtnc: Option<VersionTs>,
    ) -> Box<Evidence> {
        let mut e = Box::<Evidence>::default();
        for &et in completed {
            e.complete(EtId(et));
        }
        for &(et, commit) in decisions {
            e.decide(EtId(et), commit);
        }
        if let Some(ts) = vtnc {
            e.advance_vtnc(ts);
        }
        e
    }

    fn sample_mset() -> MSet {
        MSet::new(
            EtId(12),
            SiteId(2),
            vec![
                ObjectOp::new(ObjectId(1), Operation::Incr(3)),
                ObjectOp::new(
                    ObjectId(2),
                    Operation::TimestampedWrite(
                        VersionTs::new(5, ClientId(1)),
                        Value::Text("x".into()),
                    ),
                ),
            ],
        )
        .sequenced(SeqNo(4))
    }

    #[test]
    fn every_frame_variant_round_trips() {
        let frames = [
            Frame::Hello {
                site: SiteId(3),
                epoch: 7,
            },
            Frame::MSet(sample_mset()),
            Frame::Ack { entry: u64::MAX },
            Frame::Applied {
                site: SiteId(1),
                et: EtId(9),
                version: None,
            },
            Frame::Applied {
                site: SiteId(2),
                et: EtId(10),
                version: Some(VersionTs::new(44, ClientId(6))),
            },
            Frame::Complete { et: EtId(11) },
            Frame::Vtnc {
                ts: VersionTs::new(17, ClientId(0)),
            },
            Frame::Decision {
                et: EtId(13),
                commit: true,
            },
            Frame::Ping {
                view: 3,
                from: SiteId(0),
            },
            Frame::StartViewChange {
                view: 4,
                from: SiteId(2),
            },
            Frame::DoViewChange {
                view: 4,
                from: SiteId(1),
                evidence: evidence(
                    &[5, 1],
                    &[(2, false)],
                    Some(VersionTs::new(6, ClientId(1))),
                ),
            },
            Frame::DoViewChange {
                view: 1,
                from: SiteId(2),
                evidence: Box::default(),
            },
            Frame::StartView {
                view: 4,
                evidence: evidence(&[1], &[(2, true)], None),
            },
            Frame::ForwardDecision {
                et: EtId(8),
                commit: false,
            },
            Frame::Submit(sample_mset()),
            Frame::Submit(sample_mset().from_client(ClientId(4), 11)),
            Frame::SubmitOk { et: EtId(12) },
            Frame::Query {
                read_set: vec![ObjectId(1), ObjectId(2)],
                epsilon_limit: u64::MAX,
            },
            Frame::QueryOk(QueryOutcome {
                values: vec![Value::Int(-4), Value::Set(BTreeSet::from([1, 2]))],
                charged: 3,
                admitted: true,
            }),
            Frame::QueryOk(QueryOutcome::rejected()),
            Frame::Snapshot,
            Frame::SnapshotOk {
                entries: vec![(ObjectId(0), Value::Int(1)), (ObjectId(1), Value::Text("t".into()))],
            },
            Frame::Status,
            Frame::StatusOk {
                settled: true,
                outbound_pending: 5,
                epoch: 2,
                view: 3,
                coordinator: false,
                ckpt_seq: 4,
                ckpt_covered: 190,
            },
            Frame::SnapshotRequest { offset: 65_536 },
            Frame::SnapshotChunk {
                total_len: 10,
                offset: 3,
                bytes: vec![1, 2, 3, 4, 5, 6, 7],
            },
            Frame::SnapshotChunk {
                total_len: 0,
                offset: 0,
                bytes: vec![],
            },
            Frame::Checkpoint,
            Frame::CheckpointOk {
                seq: 3,
                covered: 812,
            },
            Frame::DecisionOk { et: EtId(13) },
            Frame::Metrics,
            Frame::MetricsOk {
                text: "esr_msets_applied_total{site=\"0\"} 3\n".to_owned(),
            },
            Frame::MetricsOk { text: String::new() },
            Frame::Submit(sample_mset().traced(1_723_000_000_000_000)),
            Frame::MSet(sample_mset().from_client(ClientId(2), 3).traced(55)),
            Frame::EventQuery { et: 12 },
            Frame::EventQuery { et: u64::MAX },
            Frame::EventOk {
                dropped: 2,
                events: every_event(),
            },
            Frame::EventOk {
                dropped: 0,
                events: vec![],
            },
            // The smallest event there is: a span with every option
            // absent must clear the decoder's per-element size floor.
            Frame::EventOk {
                dropped: 0,
                events: vec![(
                    0,
                    0,
                    Event::Span(SpanRec {
                        stage: SpanStage::Submit,
                        et: None,
                        peer: None,
                        version: None,
                        gseq: None,
                        t0: None,
                        commit: None,
                    }),
                )],
            },
        ];
        for frame in &frames {
            roundtrip_frame(frame);
        }
    }

    #[test]
    fn frame_truncation_at_any_prefix_is_an_error_not_a_panic() {
        let frames = [
            Frame::DoViewChange {
                view: 2,
                from: SiteId(1),
                evidence: evidence(&[1], &[(2, true)], Some(VersionTs::new(3, ClientId(0)))),
            },
            Frame::StartView {
                view: 2,
                evidence: evidence(&[1], &[], None),
            },
            Frame::Submit(sample_mset().from_client(ClientId(2), 5)),
            Frame::MetricsOk {
                text: "esr_backlog{site=\"1\"} 2\n".to_owned(),
            },
            Frame::SnapshotChunk {
                total_len: 5,
                offset: 0,
                bytes: vec![9, 9, 9],
            },
            Frame::StatusOk {
                settled: false,
                outbound_pending: 1,
                epoch: 2,
                view: 0,
                coordinator: true,
                ckpt_seq: 1,
                ckpt_covered: 7,
            },
            Frame::Submit(sample_mset().traced(9_000)),
            Frame::EventOk {
                dropped: 1,
                events: every_event(),
            },
        ];
        for frame in &frames {
            let bytes = encode_frame(frame);
            for cut in 0..bytes.len() {
                let prefix = Bytes::copy_from_slice(&bytes.as_slice()[..cut]);
                assert!(
                    decode_frame(&prefix).is_err(),
                    "frame prefix of {cut} bytes decoded successfully"
                );
            }
            assert!(decode_frame(&bytes).is_ok());
        }
    }

    #[test]
    fn unknown_frame_tag_is_rejected() {
        // 0x08 (control snapshot) and 0x18/0x19 (audit request/reply)
        // are retired tags: never reassigned.
        for tag in [0xEEu8, 0x08, 0x18, 0x19] {
            let raw = Bytes::from(vec![tag, 0, 0, 0]);
            assert_eq!(
                decode_frame(&raw),
                Err(WireError::BadTag { field: "frame", tag })
            );
        }
    }

    #[test]
    fn corrupt_frame_count_is_rejected_without_allocation_blowup() {
        let frame = Frame::Query {
            read_set: vec![],
            epsilon_limit: 0,
        };
        let mut raw = encode_frame(&frame).to_vec();
        // Last four bytes are the read-set count.
        let n = raw.len();
        raw[n - 4..].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(decode_frame(&Bytes::from(raw)), Err(WireError::BadLength));
    }
}

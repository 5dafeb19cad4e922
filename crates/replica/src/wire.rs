//! The codec: one binary layout per type, for the wire, the journal and
//! snapshot files.
//!
//! `esrd` sends frames over its links, each site keeps one durable
//! journal of the MSets it applied, the decisions it took on, the views
//! it installed and its links' acknowledged cursors
//! ([`encode_record`]), and a checkpoint image is one more payload. All
//! of them are encoded here, through one trait, `Wire`. Each type
//! implements it once — the integers, text, lists and options below,
//! then every id, [`Operation`], [`Value`], [`MSet`], [`Event`] and
//! [`Frame`], and in [`crate::ckpt`] and [`crate::node_ckpt`] the
//! checkpoint images — and a compound type's layout is its fields'
//! layouts in order. A list is a `u32` count and its elements, an
//! option a 0/1 presence byte and its value, an enum a tag byte and its
//! variant's fields. A plain struct's impl is one `wire_struct!` field
//! list and an enum's one `wire_enum!` tag table, so adding a variant
//! is adding a row.
//!
//! The format is a simple tagged binary layout (big-endian integers, no
//! compression): stable within this workspace, not a cross-version
//! interchange format. Decoding is total: any byte slice either yields a
//! value or a [`WireError`], never a panic and never an allocation the
//! remaining bytes could not fill — torn queue tails surface as errors
//! the recovery path can skip.

use std::collections::BTreeSet;

use bytes::{BufMut, Bytes, BytesMut};

use esr_core::ids::{ClientId, EtId, LamportTs, ObjectId, SeqNo, SiteId, VersionTs};
use esr_core::op::{ObjectOp, Operation};
use esr_core::value::Value;

use crate::ctrl::{Evidence, Record};
use crate::mset::{MSet, OrderTag};
use crate::site::QueryOutcome;
use crate::span::{Event, SpanRec, SpanStage};

/// Why a byte payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the announced structure was complete.
    Truncated,
    /// An unknown tag byte for the given field.
    BadTag {
        /// Which field carried the tag ("order", "op", "value", "frame",
        /// "option", "bool", ...).
        field: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A count or length prefix disagreed with the payload: it exceeded
    /// what was left, or a nested section was not consumed exactly.
    BadLength,
    /// Embedded text was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::BadTag { field, tag } => write!(f, "unknown {field} tag {tag:#04x}"),
            WireError::BadLength => write!(f, "length prefix disagrees with payload"),
            WireError::BadUtf8 => write!(f, "text field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

/// A type with one binary layout.
pub(crate) trait Wire: Sized {
    /// The fewest bytes any value encodes to: the sum of the fields' for
    /// a struct, the tag byte plus the smallest variant for an enum. A
    /// list count is checked against it before anything is allocated,
    /// and since a derived minimum never exceeds the true one, that
    /// check never rejects a valid payload.
    const MIN_LEN: usize;

    /// Appends this value's encoding.
    fn put(&self, b: &mut BytesMut);

    /// Decodes one value from the front of `b` and advances past it.
    fn get(b: &mut &[u8]) -> Result<Self, WireError>;

    /// Appends `items` back to back: a list's body. Bytes override it
    /// with one slice copy.
    fn put_many(items: &[Self], b: &mut BytesMut) {
        for item in items {
            item.put(b);
        }
    }

    /// Decodes `n` values back to back; `n` has passed the count check.
    /// Bytes override it with one slice copy.
    fn get_many(b: &mut &[u8], n: usize) -> Result<Vec<Self>, WireError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(Self::get(b)?);
        }
        Ok(out)
    }
}

/// Encodes `v` into a buffer pre-sized to `capacity` bytes.
pub(crate) fn encode<T: Wire>(v: &T, capacity: usize) -> Bytes {
    let mut b = BytesMut::with_capacity(capacity);
    v.put(&mut b);
    b.freeze()
}

/// The smallest of `lens`: an enum's [`Wire::MIN_LEN`] is its tag plus
/// the smallest of its variants'.
pub(crate) const fn smallest(lens: &[usize]) -> usize {
    let (mut min, mut i) = (usize::MAX, 0);
    while i < lens.len() {
        if lens[i] < min {
            min = lens[i];
        }
        i += 1;
    }
    min
}

/// A 0/1 byte; anything else is a [`WireError::BadTag`] for `field`.
pub(crate) fn flag(b: &mut &[u8], field: &'static str) -> Result<bool, WireError> {
    match u8::get(b)? {
        0 => Ok(false),
        1 => Ok(true),
        tag => Err(WireError::BadTag { field, tag }),
    }
}

/// Writes an iterator in `Vec<T>`'s layout.
fn put_seq<T: Wire>(b: &mut BytesMut, items: impl ExactSizeIterator<Item = T>) {
    (items.len() as u32).put(b);
    for item in items {
        item.put(b);
    }
}

/// Writes `v` as a nested section: its encoded length as a `u32`, then
/// the encoding.
pub(crate) fn put_nested<T: Wire>(b: &mut BytesMut, v: &T) {
    let at = b.len();
    0u32.put(b);
    v.put(b);
    let len = (b.len() - at - u32::MIN_LEN) as u32;
    b[at..at + u32::MIN_LEN].copy_from_slice(&len.to_be_bytes());
}

/// Reads a section written by [`put_nested`]. The value must fill its
/// section exactly: bytes it does not account for are a
/// [`WireError::BadLength`], as trailing bytes after a payload are.
pub(crate) fn get_nested<T: Wire>(b: &mut &[u8]) -> Result<T, WireError> {
    let len = u32::get(b)? as usize;
    let (mut section, rest) = b.split_at_checked(len).ok_or(WireError::BadLength)?;
    *b = rest;
    let v = T::get(&mut section)?;
    section.is_empty().then_some(v).ok_or(WireError::BadLength)
}

macro_rules! int {
    ($($t:ty),+) => {$(
        impl Wire for $t {
            const MIN_LEN: usize = std::mem::size_of::<$t>();
            fn put(&self, b: &mut BytesMut) {
                b.put_slice(&self.to_be_bytes());
            }
            fn get(b: &mut &[u8]) -> Result<Self, WireError> {
                let (head, rest) = b.split_first_chunk().ok_or(WireError::Truncated)?;
                *b = rest;
                Ok(<$t>::from_be_bytes(*head))
            }
        }
    )+};
}

int!(u32, u64, i64);

impl Wire for u8 {
    const MIN_LEN: usize = 1;
    fn put(&self, b: &mut BytesMut) {
        b.put_u8(*self);
    }
    fn get(b: &mut &[u8]) -> Result<Self, WireError> {
        let (&byte, rest) = b.split_first().ok_or(WireError::Truncated)?;
        *b = rest;
        Ok(byte)
    }
    fn put_many(items: &[u8], b: &mut BytesMut) {
        b.put_slice(items);
    }
    fn get_many(b: &mut &[u8], n: usize) -> Result<Vec<u8>, WireError> {
        let (head, rest) = b.split_at_checked(n).ok_or(WireError::BadLength)?;
        *b = rest;
        Ok(head.to_vec())
    }
}

impl Wire for bool {
    const MIN_LEN: usize = u8::MIN_LEN;
    fn put(&self, b: &mut BytesMut) {
        u8::from(*self).put(b);
    }
    fn get(b: &mut &[u8]) -> Result<Self, WireError> {
        flag(b, "bool")
    }
}

/// UTF-8 bytes in `Vec<u8>`'s layout.
impl Wire for String {
    const MIN_LEN: usize = Vec::<u8>::MIN_LEN;
    fn put(&self, b: &mut BytesMut) {
        (self.len() as u32).put(b);
        b.put_slice(self.as_bytes());
    }
    fn get(b: &mut &[u8]) -> Result<Self, WireError> {
        String::from_utf8(Vec::get(b)?).map_err(|_| WireError::BadUtf8)
    }
}

/// A `u32` count, then the elements.
impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = u32::MIN_LEN;
    fn put(&self, b: &mut BytesMut) {
        (self.len() as u32).put(b);
        T::put_many(self, b);
    }
    fn get(b: &mut &[u8]) -> Result<Self, WireError> {
        // The one count check: a corrupt count cannot allocate more
        // elements than the bytes left could hold.
        const { assert!(T::MIN_LEN > 0) };
        let n = u32::get(b)? as usize;
        if n.saturating_mul(T::MIN_LEN) > b.len() {
            return Err(WireError::BadLength);
        }
        T::get_many(b, n)
    }
}

/// A 0/1 presence byte, then the value if present.
impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = u8::MIN_LEN;
    fn put(&self, b: &mut BytesMut) {
        match self {
            None => 0u8.put(b),
            Some(v) => {
                1u8.put(b);
                v.put(b);
            }
        }
    }
    fn get(b: &mut &[u8]) -> Result<Self, WireError> {
        flag(b, "option")?.then(|| T::get(b)).transpose()
    }
}

impl<T: Wire> Wire for Box<T> {
    const MIN_LEN: usize = T::MIN_LEN;
    fn put(&self, b: &mut BytesMut) {
        (**self).put(b);
    }
    fn get(b: &mut &[u8]) -> Result<Self, WireError> {
        T::get(b).map(Box::new)
    }
}

macro_rules! tuple {
    ($($t:ident),+) => {
        #[allow(non_snake_case)]
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            const MIN_LEN: usize = 0 $(+ $t::MIN_LEN)+;
            fn put(&self, b: &mut BytesMut) {
                let ($($t,)+) = self;
                $($t.put(b);)+
            }
            fn get(b: &mut &[u8]) -> Result<Self, WireError> {
                Ok(($($t::get(b)?,)+))
            }
        }
    };
}

tuple!(A, B);
tuple!(A, B, C);
tuple!(A, B, C, D);
tuple!(A, B, C, D, E);

/// Ascending, in `Vec<i64>`'s layout.
impl Wire for BTreeSet<i64> {
    const MIN_LEN: usize = Vec::<i64>::MIN_LEN;
    fn put(&self, b: &mut BytesMut) {
        put_seq(b, self.iter().copied());
    }
    fn get(b: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Vec::<i64>::get(b)?.into_iter().collect())
    }
}

/// Implements [`Wire`] for a struct whose layout is the listed fields,
/// in the listed order (the wire order, which need not be the
/// declaration order).
macro_rules! wire_struct {
    ($name:ident { $($field:ident: $ty:ty),+ $(,)? }) => {
        impl $crate::wire::Wire for $name {
            const MIN_LEN: usize = 0 $(+ <$ty as $crate::wire::Wire>::MIN_LEN)+;
            fn put(&self, b: &mut ::bytes::BytesMut) {
                $($crate::wire::Wire::put(&self.$field, b);)+
            }
            fn get(b: &mut &[u8]) -> Result<Self, $crate::wire::WireError> {
                Ok(Self { $($field: <$ty as $crate::wire::Wire>::get(b)?),+ })
            }
        }
    };
}

pub(crate) use wire_struct;

/// Implements [`Wire`] for an enum from its tag table: one row per
/// variant, `tag => Variant`, `tag => Variant(binding: Type, …)` or
/// `tag => Variant { field: Type, … }`, the fields in wire order. The
/// layout is the tag byte, then the variant's fields; an unknown tag
/// decodes to a [`WireError::BadTag`] for `label`. A variant left out
/// of the table does not compile, and two rows sharing a tag are an
/// unreachable pattern.
macro_rules! wire_enum {
    ($name:ident, $label:literal {
        $($tag:literal => $variant:ident
            $(($($arg:ident: $aty:ty),+))?
            $({ $($field:ident: $fty:ty),+ $(,)? })?),+ $(,)?
    }) => {
        impl $crate::wire::Wire for $name {
            const MIN_LEN: usize = <u8 as $crate::wire::Wire>::MIN_LEN
                + $crate::wire::smallest(&[$(
                    0 $($(+ <$aty as $crate::wire::Wire>::MIN_LEN)+)?
                      $($(+ <$fty as $crate::wire::Wire>::MIN_LEN)+)?
                ),+]);
            fn put(&self, b: &mut ::bytes::BytesMut) {
                match self {$(
                    $name::$variant $(($($arg),+))? $({ $($field),+ })? => {
                        <u8 as $crate::wire::Wire>::put(&$tag, b);
                        $($($crate::wire::Wire::put($arg, b);)+)?
                        $($($crate::wire::Wire::put($field, b);)+)?
                    }
                )+}
            }
            fn get(b: &mut &[u8]) -> Result<Self, $crate::wire::WireError> {
                Ok(match <u8 as $crate::wire::Wire>::get(b)? {
                    $($tag => $name::$variant
                        $(($(<$aty as $crate::wire::Wire>::get(b)?),+))?
                        $({ $($field: <$fty as $crate::wire::Wire>::get(b)?),+ })?,)+
                    tag => return Err($crate::wire::WireError::BadTag { field: $label, tag }),
                })
            }
        }
    };
}

pub(crate) use wire_enum;

macro_rules! id {
    ($($t:ident),+) => {$(
        impl Wire for $t {
            const MIN_LEN: usize = u64::MIN_LEN;
            fn put(&self, b: &mut BytesMut) {
                self.0.put(b);
            }
            fn get(b: &mut &[u8]) -> Result<Self, WireError> {
                Ok(Self(u64::get(b)?))
            }
        }
    )+};
}

id!(EtId, SiteId, ObjectId, ClientId, SeqNo);
wire_struct!(VersionTs { time: u64, client: ClientId });
wire_struct!(LamportTs { counter: u64, site: SiteId });

wire_enum!(Value, "value" {
    0 => Int(i: i64),
    1 => Text(s: String),
    2 => Set(s: BTreeSet<i64>),
});

wire_enum!(Operation, "op" {
    0 => Read,
    1 => Write(v: Value),
    2 => Incr(n: i64),
    3 => Decr(n: i64),
    4 => MulBy(k: i64),
    5 => DivBy(k: i64),
    6 => InsertElem(e: i64),
    7 => RemoveElem(e: i64),
    8 => TimestampedWrite(ts: VersionTs, v: Value),
});

wire_struct!(ObjectOp { object: ObjectId, op: Operation });

wire_enum!(OrderTag, "order" {
    0 => Unordered,
    1 => Sequenced(seq: SeqNo),
    2 => Lamport { ts: LamportTs, fifo: SeqNo },
});

// The client identity (exactly-once dedup) and the trace context (the
// client's submit wall stamp) trail as options: a mandatory presence
// byte each keeps truncation detectable.
wire_struct!(MSet {
    et: EtId,
    origin: SiteId,
    order: OrderTag,
    ops: Vec<ObjectOp>,
    client: Option<(ClientId, u64)>,
    t0: Option<u64>,
});

/// Encodes an MSet into a self-contained byte payload.
pub fn encode_mset(mset: &MSet) -> Bytes {
    encode(mset, 32 + 16 * mset.ops.len())
}

/// Decodes an MSet produced by [`encode_mset`].
///
/// Decoding walks a plain slice cursor over the payload — no refcounted
/// sub-buffers, and embedded text costs exactly one `String` allocation.
pub fn decode_mset(payload: &Bytes) -> Result<MSet, WireError> {
    MSet::get(&mut payload.as_ref())
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

// A stage's tag is its discriminant.
wire_enum!(SpanStage, "stage" {
    0 => Submit,
    1 => Enqueue,
    2 => Deliver,
    3 => Held,
    4 => Apply,
    5 => Replay,
    6 => CompleteCert,
    7 => Complete,
    8 => VtncCert,
    9 => Vtnc,
    10 => DecisionCert,
    11 => Decision,
});

wire_struct!(SpanRec {
    stage: SpanStage,
    et: Option<EtId>,
    peer: Option<SiteId>,
    version: Option<VersionTs>,
    gseq: Option<SeqNo>,
    t0: Option<u64>,
    commit: Option<bool>,
});

wire_enum!(Event, "event" {
    0 => Span(rec: SpanRec),
    1 => DuplicateDelivery { et: EtId },
    2 => DuplicateSubmit { client: ClientId, seq: u64, et: EtId },
    3 => Hello { site: SiteId, epoch: u64 },
    4 => ViewChangeStart { view: u64 },
    5 => ViewInstall { view: u64, coordinator: SiteId },
    6 => CkptCut { covered: u64 },
    7 => CkptRestore { covered: u64, view: u64 },
    8 => CkptInstall { seq: u64, covered: u64 },
    9 => CkptTruncate { through: u64, retired: u64 },
    10 => CkptCatchUp { seq: u64, covered: u64, from: SiteId },
    11 => CkptFailed { seq: u64, detail: String },
    12 => Boot { epoch: u64, replayed: u64, view: u64, snapshot: Option<(u64, u64)> },
});

/// A control-plane ledger: the payload of `DoViewChange` and
/// `StartView`, and the control section of a checkpoint image.
/// Completions, then decisions, each as a list in first-seen order,
/// then the VTNC horizon.
impl Wire for Evidence {
    const MIN_LEN: usize = Vec::<EtId>::MIN_LEN
        + Vec::<(EtId, bool)>::MIN_LEN
        + Option::<VersionTs>::MIN_LEN;
    fn put(&self, b: &mut BytesMut) {
        put_seq(b, self.completed());
        put_seq(b, self.decisions());
        self.vtnc().put(b);
    }
    fn get(b: &mut &[u8]) -> Result<Self, WireError> {
        let mut evidence = Evidence::default();
        for et in Vec::<EtId>::get(b)? {
            evidence.complete(et);
        }
        for (et, commit) in Vec::<(EtId, bool)>::get(b)? {
            evidence.decide(et, commit);
        }
        if let Some(ts) = Option::<VersionTs>::get(b)? {
            evidence.advance_vtnc(ts);
        }
        Ok(evidence)
    }
}

wire_struct!(QueryOutcome {
    admitted: bool,
    charged: u64,
    values: Vec<Value>,
});

// Peer-plane tags from 0x01, client-plane tags from 0x10. Retired tags
// stay unassigned and must keep decoding to `BadTag`: 0x03 (the
// per-entry link ack, an envelope since the durable links), 0x08 (the
// pre-failover control snapshot) and 0x18/0x19 (the audit-log request
// and reply).
wire_enum!(Frame, "frame" {
    0x01 => Hello { site: SiteId, epoch: u64 },
    0x02 => MSet(mset: MSet),
    0x04 => Applied { site: SiteId, et: EtId, version: Option<VersionTs> },
    0x05 => Complete { et: EtId },
    0x06 => Vtnc { ts: VersionTs },
    0x07 => Decision { et: EtId, commit: bool },
    0x09 => Ping { view: u64, from: SiteId },
    0x0A => StartViewChange { view: u64, from: SiteId },
    0x0B => DoViewChange { view: u64, from: SiteId, evidence: Box<Evidence> },
    0x0C => StartView { view: u64, evidence: Box<Evidence> },
    0x0D => ForwardDecision { et: EtId, commit: bool },
    0x0E => SnapshotRequest { offset: u64 },
    0x0F => SnapshotChunk { total_len: u64, offset: u64, bytes: Vec<u8> },
    0x10 => Submit(mset: MSet),
    0x11 => SubmitOk { et: EtId },
    0x12 => Query { epsilon_limit: u64, read_set: Vec<ObjectId> },
    0x13 => QueryOk(out: QueryOutcome),
    0x14 => Snapshot,
    0x15 => SnapshotOk { entries: Vec<(ObjectId, Value)> },
    0x16 => Status,
    0x17 => StatusOk {
        settled: bool,
        outbound_pending: u64,
        epoch: u64,
        view: u64,
        coordinator: bool,
        ckpt_seq: u64,
        ckpt_covered: u64,
    },
    0x1A => DecisionOk { et: EtId },
    0x1B => Metrics,
    0x1C => MetricsOk { text: String },
    0x1F => Checkpoint,
    0x20 => CheckpointOk { seq: u64, covered: u64 },
    0x21 => EventQuery { et: u64 },
    0x22 => EventOk { dropped: u64, events: Vec<(u64, u64, Event)> },
});

/// Encodes a frame into a self-contained byte payload.
pub fn encode_frame(frame: &Frame) -> Bytes {
    encode(frame, 64)
}

/// Appends a frame's encoding, the bytes of [`encode_frame`], to `b`: a
/// caller that encodes many frames clears and reuses one buffer.
pub fn encode_frame_into(frame: &Frame, b: &mut BytesMut) {
    frame.put(b);
}

/// Decodes a frame produced by [`encode_frame`], in place: any byte
/// slice — a `Bytes`, or a span of a receive buffer — yields a frame or
/// an error, never a panic.
pub fn decode_frame(payload: &[u8]) -> Result<Frame, WireError> {
    Frame::get(&mut &payload[..])
}

// An MSet and a decision keep the tags of the frames that carry them,
// so a decision record reads as its client's `Frame::Decision`; the
// kinds no frame carries take tags above every frame's.
wire_enum!(Record, "record" {
    0x02 => MSet(mset: MSet),
    0x07 => Decision { et: EtId, commit: bool },
    0x30 => View(view: u64),
    0x31 => Cursors(acked: Vec<Option<u64>>),
});

/// Encodes one journal record.
pub fn encode_record(record: &Record) -> Bytes {
    encode(record, 64)
}

/// Appends one journal record's encoding, the bytes of
/// [`encode_record`], to the buffer the journal writes.
pub fn put_record(record: &Record, b: &mut BytesMut) {
    record.put(b);
}

/// Appends the journal record of an accepted MSet: the bytes of
/// `put_record(&Record::MSet(mset.clone()), b)`, without the clone.
pub fn put_mset_record(mset: &MSet, b: &mut BytesMut) {
    // `Record::MSet`'s row of the tag table above.
    0x02u8.put(b);
    mset.put(b);
}

/// Decodes a record written by [`encode_record`]. Total, like
/// [`decode_frame`]: boot reads whatever bytes the journal file holds.
pub fn decode_record(payload: &[u8]) -> Result<Record, WireError> {
    Record::get(&mut &payload[..])
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn an_mset_record_is_put_as_its_record_is_encoded() {
        let mset = MSet::new(
            EtId(7),
            SiteId(1),
            vec![ObjectOp::new(ObjectId(2), Operation::Incr(3))],
        )
        .from_client(ClientId(4), 5);
        let record = Record::MSet(mset.clone());
        let (mut by_ref, mut by_record) = (BytesMut::new(), BytesMut::new());
        put_mset_record(&mset, &mut by_ref);
        put_record(&record, &mut by_record);
        assert_eq!(by_ref.as_ref(), encode_record(&record).as_ref());
        assert_eq!(by_record.as_ref(), by_ref.as_ref());
        assert_eq!(decode_record(&by_ref), Ok(record));
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
        // 0x03 (link ack), 0x08 (control snapshot) and 0x18/0x19 (audit
        // request/reply) are retired tags: never reassigned.
        for tag in [0xEEu8, 0x03, 0x08, 0x18, 0x19] {
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

    #[test]
    fn span_stage_tags_are_discriminants() {
        let stages: Vec<(u8, SpanStage)> = (0..=u8::MAX)
            .filter_map(|tag| Some((tag, SpanStage::get(&mut &[tag][..]).ok()?)))
            .collect();
        assert_eq!(stages.len(), 12);
        for (tag, stage) in stages {
            assert_eq!(stage as u8, tag);
        }
    }

    /// Encodes `v`, which must be the smallest value of its type, and
    /// checks that it takes exactly `T::MIN_LEN` bytes.
    fn smallest_is<T: Wire + std::fmt::Debug>(v: T) {
        let mut b = BytesMut::new();
        v.put(&mut b);
        assert_eq!(b.len(), T::MIN_LEN, "{v:?}");
        assert_eq!(T::get(&mut &b[..]).map(|_| ()), Ok(()), "{v:?}");
    }

    #[test]
    fn min_len_is_exact() {
        use crate::ckpt::{CommuCkpt, CompeCkpt, OrdupCkpt, RituCkpt, RituMvCkpt, SiteCkpt};
        use crate::node_ckpt::CkptPayload;
        use esr_storage::recovery_log::{AppliedOp, LogRecord};

        smallest_is(0u8);
        smallest_is(0u32);
        smallest_is(0u64);
        smallest_is(0i64);
        smallest_is(false);
        smallest_is(String::new());
        smallest_is(Vec::<MSet>::new());
        smallest_is(Option::<MSet>::None);
        smallest_is(Box::new(0u8));
        smallest_is((0u8, false));
        smallest_is((0u8, 0u32, None::<u8>, 0i64, String::new()));
        smallest_is(BTreeSet::<i64>::new());
        smallest_is(EtId(0));
        smallest_is(SiteId(0));
        smallest_is(ObjectId(0));
        smallest_is(ClientId(0));
        smallest_is(SeqNo(0));
        smallest_is(VersionTs::MIN);
        smallest_is(LamportTs::new(0, SiteId(0)));
        smallest_is(Value::Text(String::new()));
        smallest_is(Value::Set(BTreeSet::new()));
        smallest_is(Operation::Read);
        smallest_is(ObjectOp::new(ObjectId(0), Operation::Read));
        smallest_is(OrderTag::Unordered);
        smallest_is(MSet::new(EtId(0), SiteId(0), vec![]));
        assert_eq!(MSet::MIN_LEN, 23);
        smallest_is(SpanStage::Submit);
        let bare_span = SpanRec {
            stage: SpanStage::Submit,
            et: None,
            peer: None,
            version: None,
            gseq: None,
            t0: None,
            commit: None,
        };
        smallest_is(bare_span);
        smallest_is(Event::Span(bare_span));
        smallest_is(Evidence::default());
        smallest_is(QueryOutcome::rejected());
        smallest_is(Frame::Status);
        smallest_is(AppliedOp {
            op: ObjectOp::new(ObjectId(0), Operation::Read),
            before: Value::Text(String::new()),
        });
        smallest_is(LogRecord {
            et: EtId(0),
            ops: vec![],
            resolved: false,
        });
        smallest_is(OrdupCkpt {
            values: vec![],
            next_seq: SeqNo(0),
            holdback: vec![],
            applied_ets: vec![],
        });
        let commu = CommuCkpt {
            values: vec![],
            held: vec![],
            applied_ets: vec![],
        };
        smallest_is(commu.clone());
        smallest_is(RituCkpt {
            values: vec![],
            held: vec![],
            applied_ets: vec![],
        });
        smallest_is(RituMvCkpt {
            versions: vec![],
            vtnc: VersionTs::MIN,
            newest_installed: 0,
            applied_ets: vec![],
        });
        smallest_is(CompeCkpt {
            values: vec![],
            log: vec![],
            seen: vec![],
            compensations: 0,
        });
        smallest_is(SiteCkpt::Commu(commu.clone()));
        smallest_is(CkptPayload {
            covered_through: None,
            view: 0,
            client_table: vec![],
            evidence: Evidence::default(),
            site: SiteCkpt::Commu(commu),
        });
    }
}

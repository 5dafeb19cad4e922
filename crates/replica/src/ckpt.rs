//! Checkpoint images of the replica control methods.
//!
//! A consistent checkpoint must capture everything a method needs to
//! resume mid-protocol: not just the store contents but the
//! method-specific in-flight state — ORDUP's hold-back queue and next
//! sequence number, COMMU's raised lock-counters, RITU's version
//! timestamps, RITU-MV's version chains and VTNC, COMPE's recovery log
//! and decision outcomes. [`SiteCkpt`] is that image, one variant per
//! method, with the same codec guarantees as the wire module it builds
//! on: self-describing tagged binary, big-endian, and **total
//! decoding** — any byte slice yields a checkpoint or a [`WireError`],
//! never a panic, so a torn or hostile snapshot file can at worst be
//! skipped.
//!
//! Deliberately excluded from the image: metrics bundles (re-attached
//! by the daemon after restore).

use bytes::{BufMut, Bytes, BytesMut};

use esr_core::ids::{EtId, ObjectId, SeqNo, VersionTs};
use esr_core::op::ObjectOp;
use esr_core::value::Value;
use esr_storage::recovery_log::{AppliedOp, LogRecord};

use crate::mset::MSet;
use crate::wire::{
    decode_mset_from, decode_op, decode_value, encode_mset_into, encode_op, encode_value,
    get_count, get_u64, get_u8, WireError,
};

const CKPT_ORDUP: u8 = 0;
const CKPT_COMMU: u8 = 1;
const CKPT_RITU: u8 = 2;
const CKPT_RITU_MV: u8 = 3;
const CKPT_COMPE: u8 = 4;

/// ORDUP checkpoint image (see `OrdupSite::to_ckpt`).
#[derive(Debug, Clone, PartialEq)]
pub struct OrdupCkpt {
    /// Store contents.
    pub values: Vec<(ObjectId, Value)>,
    /// The next sequence number the site will apply.
    pub next_seq: SeqNo,
    /// Held-back MSets awaiting predecessors (all `Sequenced`; the key
    /// is recovered from each MSet's order tag).
    pub holdback: Vec<MSet>,
    /// Applied ET ids (duplicate suppression), ascending.
    pub applied_ets: Vec<EtId>,
    /// Total MSets applied.
    pub applied: u64,
    /// Duplicates suppressed.
    pub redelivered: u64,
}

/// COMMU checkpoint image (see `CommuSite::to_ckpt`).
#[derive(Debug, Clone, PartialEq)]
pub struct CommuCkpt {
    /// Store contents.
    pub values: Vec<(ObjectId, Value)>,
    /// In-flight updates still holding lock-counters: `(et, write set)`.
    pub held: Vec<(EtId, Vec<ObjectId>)>,
    /// Applied ET ids, ascending.
    pub applied_ets: Vec<EtId>,
    /// Total MSets applied.
    pub applied: u64,
    /// Duplicates suppressed.
    pub redelivered: u64,
}

/// RITU overwrite-mode checkpoint image (see
/// `RituOverwriteSite::to_ckpt`).
#[derive(Debug, Clone, PartialEq)]
pub struct RituCkpt {
    /// Store contents with the winning version per object — the LWW
    /// arbitration state a restored site must keep honoring.
    pub values: Vec<(ObjectId, VersionTs, Value)>,
    /// In-flight updates still holding lock-counters.
    pub held: Vec<(EtId, Vec<ObjectId>)>,
    /// Applied ET ids, ascending.
    pub applied_ets: Vec<EtId>,
    /// Total MSets applied.
    pub applied: u64,
    /// Duplicates suppressed.
    pub redelivered: u64,
}

/// RITU multiversion-mode checkpoint image (see `RituMvSite::to_ckpt`).
#[derive(Debug, Clone, PartialEq)]
pub struct RituMvCkpt {
    /// Every retained version: `(object, version, value)`, ascending by
    /// object then version.
    pub versions: Vec<(ObjectId, VersionTs, Value)>,
    /// The certified visibility horizon.
    pub vtnc: VersionTs,
    /// Largest version time installed locally (lag gauge input).
    pub newest_installed: u64,
    /// Applied ET ids, ascending.
    pub applied_ets: Vec<EtId>,
    /// Total MSets applied.
    pub applied: u64,
    /// Duplicates suppressed.
    pub redelivered: u64,
}

/// COMPE checkpoint image (see `CompeSite::to_ckpt`).
#[derive(Debug, Clone, PartialEq)]
pub struct CompeCkpt {
    /// Store contents (optimistically applied state included).
    pub values: Vec<(ObjectId, Value)>,
    /// The recovery log, oldest record first: before-images for every
    /// ET still compensatable plus resolved markers.
    pub log: Vec<LogRecord>,
    /// Every ET ever seen with its disposition
    /// (0 = at-risk, 1 = committed, 2 = aborted, 3 = commit-pending).
    pub seen: Vec<(EtId, u8)>,
    /// Total MSets applied optimistically.
    pub applied: u64,
    /// Total aborts compensated.
    pub compensations: u64,
    /// Duplicates suppressed.
    pub redelivered: u64,
}

/// The method-specific half of a site checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum SiteCkpt {
    /// ORDUP (sequencer mode).
    Ordup(OrdupCkpt),
    /// COMMU.
    Commu(CommuCkpt),
    /// RITU overwrite mode.
    Ritu(RituCkpt),
    /// RITU multiversion mode.
    RituMv(RituMvCkpt),
    /// COMPE.
    Compe(CompeCkpt),
}

fn encode_values(b: &mut BytesMut, values: &[(ObjectId, Value)]) {
    b.put_u32(values.len() as u32);
    for (o, v) in values {
        b.put_u64(o.raw());
        encode_value(b, v);
    }
}

fn decode_values(b: &mut &[u8]) -> Result<Vec<(ObjectId, Value)>, WireError> {
    // Each entry is at least 13 bytes (object + value tag + int payload).
    let n = get_count(b, 13)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let o = ObjectId(get_u64(b)?);
        out.push((o, decode_value(b)?));
    }
    Ok(out)
}

fn encode_versioned_values(b: &mut BytesMut, values: &[(ObjectId, VersionTs, Value)]) {
    b.put_u32(values.len() as u32);
    for (o, ts, v) in values {
        b.put_u64(o.raw());
        b.put_u64(ts.time);
        b.put_u64(ts.client.raw());
        encode_value(b, v);
    }
}

fn decode_versioned_values(
    b: &mut &[u8],
) -> Result<Vec<(ObjectId, VersionTs, Value)>, WireError> {
    let n = get_count(b, 29)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let o = ObjectId(get_u64(b)?);
        let time = get_u64(b)?;
        let client = esr_core::ids::ClientId(get_u64(b)?);
        out.push((o, VersionTs::new(time, client), decode_value(b)?));
    }
    Ok(out)
}

fn encode_ets(b: &mut BytesMut, ets: &[EtId]) {
    b.put_u32(ets.len() as u32);
    for et in ets {
        b.put_u64(et.raw());
    }
}

fn decode_ets(b: &mut &[u8]) -> Result<Vec<EtId>, WireError> {
    let n = get_count(b, 8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(EtId(get_u64(b)?));
    }
    Ok(out)
}

fn encode_held(b: &mut BytesMut, held: &[(EtId, Vec<ObjectId>)]) {
    b.put_u32(held.len() as u32);
    for (et, objs) in held {
        b.put_u64(et.raw());
        b.put_u32(objs.len() as u32);
        for o in objs {
            b.put_u64(o.raw());
        }
    }
}

fn decode_held(b: &mut &[u8]) -> Result<Vec<(EtId, Vec<ObjectId>)>, WireError> {
    let n = get_count(b, 12)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let et = EtId(get_u64(b)?);
        let m = get_count(b, 8)?;
        let mut objs = Vec::with_capacity(m);
        for _ in 0..m {
            objs.push(ObjectId(get_u64(b)?));
        }
        out.push((et, objs));
    }
    Ok(out)
}

fn encode_msets(b: &mut BytesMut, msets: &[MSet]) {
    b.put_u32(msets.len() as u32);
    for m in msets {
        encode_mset_into(b, m);
    }
}

fn decode_msets(b: &mut &[u8]) -> Result<Vec<MSet>, WireError> {
    // A minimal MSet is 22 bytes (et + origin + order tag + op count +
    // client presence byte).
    let n = get_count(b, 22)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(decode_mset_from(b)?);
    }
    Ok(out)
}

fn encode_log(b: &mut BytesMut, log: &[LogRecord]) {
    b.put_u32(log.len() as u32);
    for rec in log {
        b.put_u64(rec.et.raw());
        b.put_u8(u8::from(rec.resolved));
        b.put_u32(rec.ops.len() as u32);
        for applied in &rec.ops {
            b.put_u64(applied.op.object.raw());
            encode_op(b, &applied.op.op);
            encode_value(b, &applied.before);
        }
    }
}

fn decode_log(b: &mut &[u8]) -> Result<Vec<LogRecord>, WireError> {
    let n = get_count(b, 13)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let et = EtId(get_u64(b)?);
        let resolved = match get_u8(b)? {
            0 => false,
            1 => true,
            tag => return Err(WireError::BadTag { field: "resolved", tag }),
        };
        // Each logged op is at least 14 bytes (object + op tag + before
        // value).
        let m = get_count(b, 14)?;
        let mut ops = Vec::with_capacity(m);
        for _ in 0..m {
            let object = ObjectId(get_u64(b)?);
            let op = decode_op(b)?;
            let before = decode_value(b)?;
            ops.push(AppliedOp {
                op: ObjectOp::new(object, op),
                before,
            });
        }
        out.push(LogRecord { et, ops, resolved });
    }
    Ok(out)
}

fn encode_seen(b: &mut BytesMut, seen: &[(EtId, u8)]) {
    b.put_u32(seen.len() as u32);
    for (et, disposition) in seen {
        b.put_u64(et.raw());
        b.put_u8(*disposition);
    }
}

fn decode_seen(b: &mut &[u8]) -> Result<Vec<(EtId, u8)>, WireError> {
    let n = get_count(b, 9)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let et = EtId(get_u64(b)?);
        let disposition = get_u8(b)?;
        if disposition > 3 {
            return Err(WireError::BadTag {
                field: "disposition",
                tag: disposition,
            });
        }
        out.push((et, disposition));
    }
    Ok(out)
}

/// Appends the encoded checkpoint to `b` (for embedding in a larger
/// payload).
pub fn encode_site_ckpt_into(b: &mut BytesMut, ckpt: &SiteCkpt) {
    match ckpt {
        SiteCkpt::Ordup(c) => {
            b.put_u8(CKPT_ORDUP);
            encode_values(b, &c.values);
            b.put_u64(c.next_seq.raw());
            encode_msets(b, &c.holdback);
            encode_ets(b, &c.applied_ets);
            b.put_u64(c.applied);
            b.put_u64(c.redelivered);
        }
        SiteCkpt::Commu(c) => {
            b.put_u8(CKPT_COMMU);
            encode_values(b, &c.values);
            encode_held(b, &c.held);
            encode_ets(b, &c.applied_ets);
            b.put_u64(c.applied);
            b.put_u64(c.redelivered);
        }
        SiteCkpt::Ritu(c) => {
            b.put_u8(CKPT_RITU);
            encode_versioned_values(b, &c.values);
            encode_held(b, &c.held);
            encode_ets(b, &c.applied_ets);
            b.put_u64(c.applied);
            b.put_u64(c.redelivered);
        }
        SiteCkpt::RituMv(c) => {
            b.put_u8(CKPT_RITU_MV);
            encode_versioned_values(b, &c.versions);
            b.put_u64(c.vtnc.time);
            b.put_u64(c.vtnc.client.raw());
            b.put_u64(c.newest_installed);
            encode_ets(b, &c.applied_ets);
            b.put_u64(c.applied);
            b.put_u64(c.redelivered);
        }
        SiteCkpt::Compe(c) => {
            b.put_u8(CKPT_COMPE);
            encode_values(b, &c.values);
            encode_log(b, &c.log);
            encode_seen(b, &c.seen);
            b.put_u64(c.applied);
            b.put_u64(c.compensations);
            b.put_u64(c.redelivered);
        }
    }
}

/// Encodes a checkpoint into a self-contained byte payload.
pub fn encode_site_ckpt(ckpt: &SiteCkpt) -> Bytes {
    let mut b = BytesMut::with_capacity(256);
    encode_site_ckpt_into(&mut b, ckpt);
    b.freeze()
}

/// Decodes a checkpoint from a cursor (for embedding in a larger
/// payload). Total: any byte slice yields a checkpoint or an error,
/// never a panic.
pub fn decode_site_ckpt_from(b: &mut &[u8]) -> Result<SiteCkpt, WireError> {
    Ok(match get_u8(b)? {
        CKPT_ORDUP => SiteCkpt::Ordup(OrdupCkpt {
            values: decode_values(b)?,
            next_seq: SeqNo(get_u64(b)?),
            holdback: decode_msets(b)?,
            applied_ets: decode_ets(b)?,
            applied: get_u64(b)?,
            redelivered: get_u64(b)?,
        }),
        CKPT_COMMU => SiteCkpt::Commu(CommuCkpt {
            values: decode_values(b)?,
            held: decode_held(b)?,
            applied_ets: decode_ets(b)?,
            applied: get_u64(b)?,
            redelivered: get_u64(b)?,
        }),
        CKPT_RITU => SiteCkpt::Ritu(RituCkpt {
            values: decode_versioned_values(b)?,
            held: decode_held(b)?,
            applied_ets: decode_ets(b)?,
            applied: get_u64(b)?,
            redelivered: get_u64(b)?,
        }),
        CKPT_RITU_MV => {
            let versions = decode_versioned_values(b)?;
            let time = get_u64(b)?;
            let client = esr_core::ids::ClientId(get_u64(b)?);
            SiteCkpt::RituMv(RituMvCkpt {
                versions,
                vtnc: VersionTs::new(time, client),
                newest_installed: get_u64(b)?,
                applied_ets: decode_ets(b)?,
                applied: get_u64(b)?,
                redelivered: get_u64(b)?,
            })
        }
        CKPT_COMPE => SiteCkpt::Compe(CompeCkpt {
            values: decode_values(b)?,
            log: decode_log(b)?,
            seen: decode_seen(b)?,
            applied: get_u64(b)?,
            compensations: get_u64(b)?,
            redelivered: get_u64(b)?,
        }),
        tag => return Err(WireError::BadTag { field: "ckpt", tag }),
    })
}

/// Decodes a self-contained checkpoint payload produced by
/// [`encode_site_ckpt`].
pub fn decode_site_ckpt(payload: &[u8]) -> Result<SiteCkpt, WireError> {
    let mut b = payload;
    decode_site_ckpt_from(&mut b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_core::ids::{ClientId, SiteId};
    use esr_core::op::Operation;

    fn sample_ckpts() -> Vec<SiteCkpt> {
        let ts = VersionTs::new(7, ClientId(2));
        let held_mset = MSet::new(
            EtId(9),
            SiteId(1),
            vec![ObjectOp::new(ObjectId(3), Operation::Incr(4))],
        )
        .sequenced(SeqNo(5));
        vec![
            SiteCkpt::Ordup(OrdupCkpt {
                values: vec![(ObjectId(0), Value::Int(3)), (ObjectId(1), Value::Text("x".into()))],
                next_seq: SeqNo(5),
                holdback: vec![held_mset],
                applied_ets: vec![EtId(1), EtId(2)],
                applied: 2,
                redelivered: 1,
            }),
            SiteCkpt::Ordup(OrdupCkpt {
                values: vec![],
                next_seq: SeqNo::ZERO,
                holdback: vec![],
                applied_ets: vec![],
                applied: 0,
                redelivered: 0,
            }),
            SiteCkpt::Commu(CommuCkpt {
                values: vec![(ObjectId(4), Value::Int(-2))],
                held: vec![(EtId(3), vec![ObjectId(4), ObjectId(5)]), (EtId(4), vec![])],
                applied_ets: vec![EtId(3), EtId(4)],
                applied: 2,
                redelivered: 0,
            }),
            SiteCkpt::Ritu(RituCkpt {
                values: vec![(ObjectId(1), ts, Value::Int(10))],
                held: vec![(EtId(6), vec![ObjectId(1)])],
                applied_ets: vec![EtId(6)],
                applied: 1,
                redelivered: 2,
            }),
            SiteCkpt::RituMv(RituMvCkpt {
                versions: vec![
                    (ObjectId(1), VersionTs::new(1, ClientId(0)), Value::Int(1)),
                    (ObjectId(1), ts, Value::Int(2)),
                ],
                vtnc: VersionTs::new(1, ClientId(0)),
                newest_installed: 7,
                applied_ets: vec![EtId(8)],
                applied: 1,
                redelivered: 0,
            }),
            SiteCkpt::Compe(CompeCkpt {
                values: vec![(ObjectId(0), Value::Int(12))],
                log: vec![
                    LogRecord {
                        et: EtId(1),
                        ops: vec![AppliedOp {
                            op: ObjectOp::new(ObjectId(0), Operation::Incr(12)),
                            before: Value::Int(0),
                        }],
                        resolved: false,
                    },
                    LogRecord {
                        et: EtId(2),
                        ops: vec![],
                        resolved: true,
                    },
                ],
                seen: vec![(EtId(1), 0), (EtId(2), 1), (EtId(3), 2), (EtId(4), 3)],
                applied: 2,
                compensations: 1,
                redelivered: 0,
            }),
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for ckpt in sample_ckpts() {
            let bytes = encode_site_ckpt(&ckpt);
            assert_eq!(decode_site_ckpt(&bytes), Ok(ckpt));
        }
    }

    #[test]
    fn truncation_at_any_prefix_is_an_error_not_a_panic() {
        for ckpt in sample_ckpts() {
            let bytes = encode_site_ckpt(&ckpt);
            for cut in 0..bytes.len() {
                assert!(
                    decode_site_ckpt(&bytes.as_slice()[..cut]).is_err(),
                    "prefix of {cut} bytes decoded successfully"
                );
            }
        }
    }

    #[test]
    fn unknown_method_tag_is_rejected() {
        assert!(matches!(
            decode_site_ckpt(&[0xEE]),
            Err(WireError::BadTag { field: "ckpt", .. })
        ));
    }

    #[test]
    fn out_of_range_disposition_is_rejected() {
        let ckpt = SiteCkpt::Compe(CompeCkpt {
            values: vec![],
            log: vec![],
            seen: vec![(EtId(1), 0)],
            applied: 0,
            compensations: 0,
            redelivered: 0,
        });
        let mut raw = encode_site_ckpt(&ckpt).to_vec();
        // The disposition byte trails the final three u64 counters.
        let at = raw.len() - 25;
        raw[at] = 9;
        assert!(matches!(
            decode_site_ckpt(&raw),
            Err(WireError::BadTag { field: "disposition", .. })
        ));
    }
}

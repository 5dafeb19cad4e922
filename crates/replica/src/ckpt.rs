//! Checkpoint images of the replica control methods.
//!
//! A consistent checkpoint must capture everything a method needs to
//! resume mid-protocol: not just the store contents but the
//! method-specific in-flight state — ORDUP's hold-back queue and next
//! sequence number, the raised lock-counters of COMMU and RITU (one
//! [`CountedCkpt`] layout over each store's rows, RITU's carrying the
//! version timestamps), RITU-MV's reachable versions and VTNC, COMPE's
//! recovery log and decision outcomes. [`SiteCkpt`] is that image, one
//! variant per method, with the same codec guarantees as the wire module
//! it builds on: self-describing tagged binary, big-endian, and **total
//! decoding** — any byte slice yields a checkpoint or a [`WireError`],
//! never a panic, so a torn or hostile snapshot file can at worst be
//! skipped.
//!
//! Deliberately excluded from the image: metrics bundles (re-attached
//! by the daemon after restore).

use bytes::{Bytes, BytesMut};

use esr_core::ids::{EtId, ObjectId, SeqNo, VersionTs};
use esr_core::op::ObjectOp;
use esr_core::value::Value;
use esr_storage::recovery_log::{AppliedOp, LogRecord};

use crate::compe::Disposition;
use crate::mset::{MSet, OrderTag};
use crate::wire::{encode, flag, wire_enum, wire_struct, Wire, WireError};

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
}

/// A lock-counter site's checkpoint image (see
/// `CountedSite::to_ckpt`): the store's rows, the in-flight updates,
/// the applied ETs.
#[derive(Debug, Clone, PartialEq)]
pub struct CountedCkpt<R> {
    /// The store's rows, in object order: `(object, value)` for COMMU;
    /// `(object, version, value)` for RITU, the winning version being the
    /// LWW arbitration state a restored site must keep honoring.
    pub values: Vec<R>,
    /// In-flight updates still holding lock-counters: `(et, write set)`.
    pub held: Vec<(EtId, Vec<ObjectId>)>,
    /// Applied ET ids, ascending, each with its MSet's max version —
    /// the applies the control core re-announces.
    pub applied_ets: Vec<(EtId, Option<VersionTs>)>,
}

/// COMMU checkpoint image.
pub type CommuCkpt = CountedCkpt<(ObjectId, Value)>;

/// RITU overwrite-mode checkpoint image.
pub type RituCkpt = CountedCkpt<(ObjectId, VersionTs, Value)>;

/// RITU multiversion-mode checkpoint image (see `RituMvSite::to_ckpt`).
#[derive(Debug, Clone, PartialEq)]
pub struct RituMvCkpt {
    /// Every version a read can reach at `vtnc` — per object, the
    /// newest stable version and everything above it: `(object,
    /// version, value)`, ascending by object then version.
    pub versions: Vec<(ObjectId, VersionTs, Value)>,
    /// The certified visibility horizon.
    pub vtnc: VersionTs,
    /// Largest version time installed locally (lag gauge input).
    pub newest_installed: u64,
    /// Applied ET ids, ascending, each with its MSet's max version —
    /// the applies the control core re-announces.
    pub applied_ets: Vec<(EtId, Option<VersionTs>)>,
}

/// COMPE checkpoint image (see `CompeSite::to_ckpt`).
#[derive(Debug, Clone, PartialEq)]
pub struct CompeCkpt {
    /// Store contents (optimistically applied state included).
    pub values: Vec<(ObjectId, Value)>,
    /// The recovery log, oldest record first: before-images for every
    /// ET still compensatable plus resolved markers.
    pub log: Vec<LogRecord>,
    /// Every ET whose MSet or decision reached the site, with its
    /// disposition.
    pub seen: Vec<(EtId, Disposition)>,
    /// Total aborts compensated.
    pub compensations: u64,
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

/// The hold-back queue is keyed by sequence number, so an image whose
/// hold-back holds an MSet without one was not written by
/// `OrdupSite::to_ckpt` and is rejected like any other bad tag.
impl Wire for OrdupCkpt {
    const MIN_LEN: usize = Vec::<(ObjectId, Value)>::MIN_LEN
        + SeqNo::MIN_LEN
        + Vec::<MSet>::MIN_LEN
        + Vec::<EtId>::MIN_LEN;
    fn put(&self, b: &mut BytesMut) {
        self.values.put(b);
        self.next_seq.put(b);
        self.holdback.put(b);
        self.applied_ets.put(b);
    }
    fn get(b: &mut &[u8]) -> Result<Self, WireError> {
        let c = OrdupCkpt {
            values: Wire::get(b)?,
            next_seq: Wire::get(b)?,
            holdback: Wire::get(b)?,
            applied_ets: Wire::get(b)?,
        };
        let unsequenced = c.holdback.iter().find_map(|m| match m.order {
            OrderTag::Sequenced(_) => None,
            OrderTag::Unordered => Some(0),
            OrderTag::Lamport { .. } => Some(2),
        });
        match unsequenced {
            Some(tag) => Err(WireError::BadTag {
                field: "holdback order",
                tag,
            }),
            None => Ok(c),
        }
    }
}

impl<R: Wire> Wire for CountedCkpt<R> {
    const MIN_LEN: usize = Vec::<R>::MIN_LEN
        + Vec::<(EtId, Vec<ObjectId>)>::MIN_LEN
        + Vec::<(EtId, Option<VersionTs>)>::MIN_LEN;
    fn put(&self, b: &mut BytesMut) {
        self.values.put(b);
        self.held.put(b);
        self.applied_ets.put(b);
    }
    fn get(b: &mut &[u8]) -> Result<Self, WireError> {
        Ok(CountedCkpt {
            values: Wire::get(b)?,
            held: Wire::get(b)?,
            applied_ets: Wire::get(b)?,
        })
    }
}

wire_struct!(RituMvCkpt {
    versions: Vec<(ObjectId, VersionTs, Value)>,
    vtnc: VersionTs,
    newest_installed: u64,
    applied_ets: Vec<(EtId, Option<VersionTs>)>,
});

wire_struct!(AppliedOp {
    op: ObjectOp,
    before: Value,
});

impl Wire for LogRecord {
    const MIN_LEN: usize = EtId::MIN_LEN + bool::MIN_LEN + Vec::<AppliedOp>::MIN_LEN;
    fn put(&self, b: &mut BytesMut) {
        self.et.put(b);
        self.resolved.put(b);
        self.ops.put(b);
    }
    fn get(b: &mut &[u8]) -> Result<Self, WireError> {
        Ok(LogRecord {
            et: Wire::get(b)?,
            resolved: flag(b, "resolved")?,
            ops: Wire::get(b)?,
        })
    }
}

wire_struct!(CompeCkpt {
    values: Vec<(ObjectId, Value)>,
    log: Vec<LogRecord>,
    seen: Vec<(EtId, Disposition)>,
    compensations: u64,
});

// A disposition byte no COMPE site writes is a bad tag like any other,
// so a restore never guesses what an ET's state was.
wire_enum!(Disposition, "disposition" {
    0 => AtRisk,
    1 => Committed,
    2 => Aborted,
    3 => CommitPending,
    4 => AbortPending,
});

wire_enum!(SiteCkpt, "ckpt" {
    0 => Ordup(c: OrdupCkpt),
    1 => Commu(c: CommuCkpt),
    2 => Ritu(c: RituCkpt),
    3 => RituMv(c: RituMvCkpt),
    4 => Compe(c: CompeCkpt),
});

/// Encodes a checkpoint into a self-contained byte payload.
pub fn encode_site_ckpt(ckpt: &SiteCkpt) -> Bytes {
    encode(ckpt, 256)
}

/// Decodes a self-contained checkpoint payload produced by
/// [`encode_site_ckpt`]. Total: any byte slice yields a checkpoint or an
/// error, never a panic.
pub fn decode_site_ckpt(payload: &[u8]) -> Result<SiteCkpt, WireError> {
    SiteCkpt::get(&mut &payload[..])
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
            }),
            SiteCkpt::Ordup(OrdupCkpt {
                values: vec![],
                next_seq: SeqNo::ZERO,
                holdback: vec![],
                applied_ets: vec![],
            }),
            SiteCkpt::Commu(CommuCkpt {
                values: vec![(ObjectId(4), Value::Int(-2))],
                held: vec![(EtId(3), vec![ObjectId(4), ObjectId(5)]), (EtId(4), vec![])],
                applied_ets: vec![(EtId(3), None), (EtId(4), None)],
            }),
            SiteCkpt::Ritu(RituCkpt {
                values: vec![(ObjectId(1), ts, Value::Int(10))],
                held: vec![(EtId(6), vec![ObjectId(1)])],
                applied_ets: vec![(EtId(6), Some(ts))],
            }),
            SiteCkpt::RituMv(RituMvCkpt {
                versions: vec![
                    (ObjectId(1), VersionTs::new(1, ClientId(0)), Value::Int(1)),
                    (ObjectId(1), ts, Value::Int(2)),
                ],
                vtnc: VersionTs::new(1, ClientId(0)),
                newest_installed: 7,
                applied_ets: vec![(EtId(8), Some(ts))],
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
                seen: vec![
                    (EtId(1), Disposition::AtRisk),
                    (EtId(2), Disposition::Committed),
                    (EtId(3), Disposition::Aborted),
                    (EtId(4), Disposition::CommitPending),
                    (EtId(5), Disposition::AbortPending),
                ],
                compensations: 1,
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
            seen: vec![(EtId(1), Disposition::AtRisk)],
            compensations: 0,
        });
        let mut raw = encode_site_ckpt(&ckpt).to_vec();
        // The disposition byte trails the final u64 counter.
        let at = raw.len() - 9;
        raw[at] = 9;
        assert!(matches!(
            decode_site_ckpt(&raw),
            Err(WireError::BadTag { field: "disposition", .. })
        ));
    }

    /// A hold-back MSet without a sequence stamp decodes to an error,
    /// not to an image whose restore would panic.
    #[test]
    fn unsequenced_holdback_is_rejected() {
        let stray = MSet::new(
            EtId(9),
            SiteId(1),
            vec![ObjectOp::new(ObjectId(3), Operation::Incr(4))],
        );
        let tagged = [
            (stray.clone(), 0),
            (stray.lamport(esr_core::ids::LamportTs::new(1, SiteId(1)), SeqNo(0)), 2),
        ];
        for (held, tag) in tagged {
            let ckpt = SiteCkpt::Ordup(OrdupCkpt {
                values: vec![],
                next_seq: SeqNo(0),
                holdback: vec![held],
                applied_ets: vec![],
            });
            assert_eq!(
                decode_site_ckpt(&encode_site_ckpt(&ckpt)),
                Err(WireError::BadTag {
                    field: "holdback order",
                    tag
                })
            );
        }
    }
}

//! Checkpoint images of the replica control methods.
//!
//! A consistent checkpoint must capture everything a method needs to
//! resume mid-protocol: not just the store contents but the
//! method-specific in-flight state — ORDUP's parked MSets and where its
//! order stands (the next sequence number, or ORDUP-L's origin
//! streams), the raised lock-counters of COMMU and RITU (one
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

use esr_core::ids::{EtId, LamportTs, ObjectId, SeqNo, SiteId, VersionTs};
use esr_core::op::ObjectOp;
use esr_core::value::Value;
use esr_storage::recovery_log::{AppliedOp, LogRecord};

use crate::compe::Disposition;
use crate::mset::MSet;
use crate::ordup::{Order, Stream};
use crate::wire::{encode, flag, wire_enum, wire_struct, Wire, WireError};

/// An ORDUP site's checkpoint image (see `OrderedSite::to_ckpt`).
#[derive(Debug, Clone, PartialEq)]
pub struct OrderedCkpt<O: Order> {
    /// Store contents.
    pub values: Vec<(ObjectId, Value)>,
    /// Where the order stands: ORDUP's next sequence number, ORDUP-L's
    /// origin streams.
    pub order: O::Position,
    /// Parked MSets awaiting their turn (each tagged for `O`; the key is
    /// recovered from its order tag).
    pub holdback: Vec<MSet>,
    /// Applied ET ids (duplicate suppression), ascending.
    pub applied_ets: Vec<EtId>,
}

/// ORDUP (sequencer) checkpoint image.
pub type OrdupCkpt = OrderedCkpt<SeqNo>;

/// ORDUP-L (Lamport) checkpoint image.
pub type OrdupLamportCkpt = OrderedCkpt<LamportTs>;

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
    /// ORDUP over Lamport timestamps.
    OrdupLamport(OrdupLamportCkpt),
}

/// Parked MSets are keyed by their order tag, so an image holding one
/// tagged for another order was not written by `OrderedSite::to_ckpt`
/// and is rejected like any other bad tag.
impl<O: Order> Wire for OrderedCkpt<O>
where
    O::Position: Wire,
{
    const MIN_LEN: usize = Vec::<(ObjectId, Value)>::MIN_LEN
        + <O::Position as Wire>::MIN_LEN
        + Vec::<MSet>::MIN_LEN
        + Vec::<EtId>::MIN_LEN;
    fn put(&self, b: &mut BytesMut) {
        self.values.put(b);
        self.order.put(b);
        self.holdback.put(b);
        self.applied_ets.put(b);
    }
    fn get(b: &mut &[u8]) -> Result<Self, WireError> {
        let c = OrderedCkpt {
            values: Wire::get(b)?,
            order: Wire::get(b)?,
            holdback: Wire::get(b)?,
            applied_ets: Wire::get(b)?,
        };
        match c.holdback.iter().find(|m| O::key(m).is_none()) {
            Some(stray) => Err(WireError::BadTag {
                field: "holdback order",
                // The stray MSet's order tag byte.
                tag: encode(&stray.order, 1)[0],
            }),
            None => Ok(c),
        }
    }
}

wire_struct!(Stream {
    origin: SiteId,
    next: SeqNo,
    seen: Option<LamportTs>,
    beat: Option<(SeqNo, LamportTs)>,
});

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
    5 => OrdupLamport(c: OrdupLamportCkpt),
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
                order: SeqNo(5),
                holdback: vec![held_mset],
                applied_ets: vec![EtId(1), EtId(2)],
            }),
            SiteCkpt::Ordup(OrdupCkpt {
                values: vec![],
                order: SeqNo::ZERO,
                holdback: vec![],
                applied_ets: vec![],
            }),
            SiteCkpt::OrdupLamport(OrdupLamportCkpt {
                values: vec![(ObjectId(3), Value::Int(8))],
                order: vec![
                    Stream {
                        origin: SiteId(0),
                        next: SeqNo(2),
                        seen: Some(LamportTs::new(4, SiteId(0))),
                        beat: None,
                    },
                    Stream {
                        origin: SiteId(1),
                        next: SeqNo(0),
                        seen: None,
                        beat: Some((SeqNo(1), LamportTs::new(6, SiteId(1)))),
                    },
                ],
                holdback: vec![MSet::new(
                    EtId(7),
                    SiteId(0),
                    vec![ObjectOp::new(ObjectId(3), Operation::MulBy(2))],
                )
                .lamport(LamportTs::new(3, SiteId(0)), SeqNo(1))],
                applied_ets: vec![EtId(6)],
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

    /// A parked MSet tagged for another order decodes to an error, not
    /// to an image whose restore would panic.
    #[test]
    fn a_parked_mset_of_another_order_is_rejected() {
        let stray = MSet::new(
            EtId(9),
            SiteId(1),
            vec![ObjectOp::new(ObjectId(3), Operation::Incr(4))],
        );
        let stamped = stray.clone().lamport(LamportTs::new(1, SiteId(1)), SeqNo(0));
        let ordup = |held: MSet| {
            SiteCkpt::Ordup(OrdupCkpt {
                values: vec![],
                order: SeqNo(0),
                holdback: vec![held],
                applied_ets: vec![],
            })
        };
        let lamport = SiteCkpt::OrdupLamport(OrdupLamportCkpt {
            values: vec![],
            order: vec![],
            holdback: vec![stray.clone().sequenced(SeqNo(0))],
            applied_ets: vec![],
        });
        let images = [(ordup(stray), 0), (ordup(stamped), 2), (lamport, 1)];
        for (ckpt, tag) in images {
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

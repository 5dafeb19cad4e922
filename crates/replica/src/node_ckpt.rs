//! Checkpoint payloads: one consistent cut of a daemon node.
//!
//! A checkpoint captures everything [`crate::ctrl::NodeCore`] would
//! otherwise rebuild by replaying the journal from its first entry: the
//! method state machine (via [`crate::ckpt`] — hold-back queue, applied
//! ETs with their versions and COMPE dispositions included, so nothing
//! the site records is recorded a second time here; they are also the
//! duplicate guard a restored node journals by), the exactly-once
//! client table, the view, and the control-plane ledger ([`Evidence`]:
//! completions, decisions, the VTNC horizon — each result recorded
//! once, in the same encoding `StartView` carries). What can be
//! computed from those — the count of MSets covered, the applies the
//! node re-announces — is not stored. Restoring a payload and
//! replaying only the journal *suffix* past the cut must be
//! indistinguishable from a full replay — `crates/check` tests exactly
//! that equivalence, comparing whole images.
//!
//! Like every codec in this workspace the decoder is *total*: any byte
//! slice either yields a payload or `None`, never a panic — corrupt
//! snapshot files are detected, reported, and fall back to full replay.

use bytes::BytesMut;
use esr_core::ids::EtId;

use crate::ckpt::SiteCkpt;
use crate::ctrl::Evidence;
use crate::state::RtMethod;
use crate::wire::{get_nested, put_nested, Wire, WireError};

/// One consistent checkpoint of a daemon node, cut between two steps
/// (so no effect is half-applied across the image).
#[derive(Debug, Clone, PartialEq)]
pub struct CkptPayload {
    /// Journal [`esr_storage::stable_queue::EntryId`] high-water mark at
    /// the cut: every journal entry with id `<= covered_through` is
    /// reflected in this image. `None` when the ids are meaningless
    /// locally — a fresh node, or a catch-up image fetched from a peer
    /// (whose entry ids refer to the *peer's* journal file).
    pub covered_through: Option<u64>,
    /// Durable view number at the cut.
    pub view: u64,
    /// Exactly-once client table: `(client, request_seq, et)`.
    pub client_table: Vec<(u64, u64, EtId)>,
    /// The control-plane ledger at the cut: completion notices and
    /// COMPE decisions in arrival order, and the highest VTNC
    /// certificate.
    pub evidence: Evidence,
    /// The method state machine image.
    pub site: SiteCkpt,
}

impl CkptPayload {
    /// Number of ETs whose MSet the replica held at the cut — applied,
    /// held back, or (COMPE) suppressed by an abort that outran it: one
    /// per MSet the node journalled, since the site reports every later
    /// copy as a duplicate. The payload's logical position, monotone
    /// across checkpoints of one node.
    pub fn covered(&self) -> u64 {
        let n = match &self.site {
            SiteCkpt::Ordup(c) => c.applied_ets.len() + c.holdback.len(),
            SiteCkpt::OrdupLamport(c) => c.applied_ets.len() + c.holdback.len(),
            SiteCkpt::Commu(c) => c.applied_ets.len(),
            SiteCkpt::Ritu(c) => c.applied_ets.len(),
            SiteCkpt::RituMv(c) => c.applied_ets.len(),
            SiteCkpt::Compe(c) => c.seen.iter().filter(|(_, d)| d.delivered()).count(),
        };
        n as u64
    }

    /// The replica-control method this image belongs to. Restore
    /// refuses a payload whose method disagrees with the daemon's
    /// configuration.
    pub fn method(&self) -> RtMethod {
        match self.site {
            SiteCkpt::Ordup(_) | SiteCkpt::OrdupLamport(_) => RtMethod::Ordup,
            SiteCkpt::Commu(_) => RtMethod::Commu,
            SiteCkpt::Ritu(_) => RtMethod::Ritu,
            SiteCkpt::RituMv(_) => RtMethod::RituMv,
            SiteCkpt::Compe(_) => RtMethod::Compe,
        }
    }
}

// ---- payload codec -----------------------------------------------------

/// The fields in declaration order, the method image in a nested
/// section.
impl Wire for CkptPayload {
    const MIN_LEN: usize = Option::<u64>::MIN_LEN
        + u64::MIN_LEN
        + Vec::<(u64, u64, EtId)>::MIN_LEN
        + Evidence::MIN_LEN
        + u32::MIN_LEN
        + SiteCkpt::MIN_LEN;
    fn put(&self, b: &mut BytesMut) {
        self.covered_through.put(b);
        self.view.put(b);
        self.client_table.put(b);
        self.evidence.put(b);
        put_nested(b, &self.site);
    }
    fn get(b: &mut &[u8]) -> Result<Self, WireError> {
        Ok(CkptPayload {
            covered_through: Wire::get(b)?,
            view: Wire::get(b)?,
            client_table: Wire::get(b)?,
            evidence: Wire::get(b)?,
            site: get_nested(b)?,
        })
    }
}

/// Encodes a payload for [`esr_storage::snapshot::install`].
pub fn encode_payload(p: &CkptPayload) -> Vec<u8> {
    let mut b = BytesMut::new();
    p.put(&mut b);
    b.to_vec()
}

/// Decodes a payload. Total: `None` on any truncation, bad tag, or
/// trailing garbage — the daemon treats that as a corrupt snapshot and
/// falls back to the next-older image (then to full journal replay).
pub fn decode_payload(bytes: &[u8]) -> Option<CkptPayload> {
    let mut b = bytes;
    let payload = CkptPayload::get(&mut b).ok()?;
    // Trailing garbage: not an image we wrote.
    b.is_empty().then_some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ckpt::{encode_site_ckpt, CommuCkpt, OrdupCkpt, RituMvCkpt};
    use esr_core::ids::{ClientId, SeqNo, VersionTs};

    fn sample() -> CkptPayload {
        let mut evidence = Evidence::default();
        evidence.complete(EtId::new(1));
        evidence.decide(EtId::new(2), true);
        evidence.decide(EtId::new(9), false);
        evidence.advance_vtnc(VersionTs::new(10, ClientId::new(5)));
        CkptPayload {
            covered_through: Some(41),
            view: 3,
            client_table: vec![(5, 1, EtId::new(2)), (5, 2, EtId::new(9))],
            evidence,
            site: SiteCkpt::RituMv(RituMvCkpt {
                versions: vec![],
                vtnc: VersionTs::new(10, ClientId::new(5)),
                newest_installed: 2,
                applied_ets: vec![
                    (EtId::new(1), None),
                    (EtId::new(2), Some(VersionTs::new(10, ClientId::new(5)))),
                ],
            }),
        }
    }

    #[test]
    fn payload_round_trips() {
        let samples = vec![
            sample(),
            CkptPayload {
                covered_through: None,
                view: 0,
                client_table: vec![],
                evidence: Evidence::default(),
                site: SiteCkpt::Commu(CommuCkpt {
                    values: vec![],
                    held: vec![],
                    applied_ets: vec![],
                }),
            },
        ];
        for p in samples {
            let bytes = encode_payload(&p);
            let back = decode_payload(&bytes).expect("decodes");
            assert_eq!(back, p);
        }
    }

    #[test]
    fn method_matches_site_variant() {
        assert_eq!(sample().method(), RtMethod::RituMv);
        let ordup = CkptPayload {
            site: SiteCkpt::Ordup(OrdupCkpt {
                values: vec![],
                order: SeqNo(0),
                holdback: vec![],
                applied_ets: vec![],
            }),
            ..sample()
        };
        assert_eq!(ordup.method(), RtMethod::Ordup);
    }

    #[test]
    fn truncation_at_any_prefix_is_rejected_not_a_panic() {
        let bytes = encode_payload(&sample());
        for cut in 0..bytes.len() {
            assert!(
                decode_payload(&bytes[..cut]).is_none(),
                "prefix of {cut} bytes decoded"
            );
        }
        assert!(decode_payload(&bytes).is_some());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode_payload(&sample());
        bytes.push(0xEE);
        assert!(decode_payload(&bytes).is_none());
    }

    /// The method image sits last, behind its `u32` length: lengthen
    /// that section by one byte and append it.
    #[test]
    fn trailing_bytes_inside_the_site_section_are_rejected() {
        let p = sample();
        let mut bytes = encode_payload(&p);
        let site_len = encode_site_ckpt(&p.site).len();
        let at = bytes.len() - site_len - 4;
        let widened = (site_len as u32 + 1).to_be_bytes();
        bytes[at..at + 4].copy_from_slice(&widened);
        bytes.push(0xEE);
        assert_eq!(decode_payload(&bytes), None);
    }

    #[test]
    fn bad_decision_tag_is_rejected() {
        let bytes = encode_payload(&sample());
        // Locate the decision bool: scan for a mutation that flips only
        // that byte by brute force — corrupting any single byte must
        // never panic, and corrupting the tag byte must be rejected.
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0xFF;
            let _ = decode_payload(&mutated); // totality: no panic
        }
    }
}

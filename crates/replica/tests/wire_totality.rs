//! Decode-totality properties for the wire codec.
//!
//! The esr-rpc transport hands `decode_frame`/`decode_mset` whatever a
//! socket produced, and boot hands `decode_record` whatever bytes the
//! journal file holds, so the codec must be total: *any* byte slice
//! yields a value or a [`WireError`], never a panic or an unbounded
//! allocation. The properties below throw arbitrary byte soup, mutated
//! valid encodings, and truncated prefixes at the three decoders, and
//! check that every valid encoding round-trips.

use bytes::Bytes;
use esr_core::ids::{ClientId, EtId, ObjectId, SeqNo, SiteId, VersionTs};
use esr_core::op::{ObjectOp, Operation};
use esr_core::value::Value;
use esr_replica::ctrl::{Evidence, Record};
use esr_replica::mset::MSet;
use esr_replica::site::QueryOutcome;
use esr_replica::span::{Event, SpanRec, SpanStage};
use esr_replica::wire::{
    decode_frame, decode_mset, decode_record, encode_frame, encode_mset, encode_record, Frame,
    WireError,
};
use proptest::prelude::*;

/// A seed-shaped control-plane ledger (the `DoViewChange` / `StartView`
/// payload).
fn evidence(seed: u64, ts: VersionTs) -> Box<Evidence> {
    let mut e = Box::<Evidence>::default();
    for i in 0..seed % 4 {
        e.complete(EtId(i));
    }
    for i in 0..seed % 3 {
        e.decide(EtId(i), i % 2 == 0);
    }
    if seed.is_multiple_of(3) {
        e.advance_vtnc(ts);
    }
    e
}

/// A small strategy-free frame generator: maps an index + a handful of
/// integers onto every variant family, so shrinking stays readable.
fn frame_from(seed: u64, variant: u8) -> Frame {
    let et = EtId(seed % 97);
    let site = SiteId(seed % 5);
    let ts = VersionTs::new(seed % 41, ClientId(seed % 7));
    let mset = MSet::new(
        et,
        site,
        vec![
            ObjectOp::new(ObjectId(seed % 13), Operation::Incr(seed as i64 % 9)),
            ObjectOp::new(
                ObjectId(seed % 11),
                Operation::TimestampedWrite(ts, Value::Int(seed as i64)),
            ),
        ],
    )
    .sequenced(SeqNo(seed % 17));
    let mset = if seed.is_multiple_of(2) {
        mset.from_client(ClientId(seed % 7), seed % 19)
    } else {
        mset
    };
    let mset = if seed.is_multiple_of(3) {
        mset.traced(seed.wrapping_mul(31))
    } else {
        mset
    };
    match variant % 24 {
        0 => Frame::Hello {
            site,
            epoch: seed,
        },
        1 => Frame::MSet(mset),
        2 => Frame::ForwardDecision {
            et,
            commit: seed.is_multiple_of(2),
        },
        3 => Frame::Applied {
            site,
            et,
            version: if seed.is_multiple_of(2) { Some(ts) } else { None },
        },
        4 => Frame::Complete { et },
        5 => Frame::Vtnc { ts },
        6 => Frame::Decision {
            et,
            commit: seed.is_multiple_of(2),
        },
        7 => Frame::EventQuery { et: seed % 97 },
        8 => Frame::Submit(mset),
        9 => Frame::SubmitOk { et },
        10 => Frame::Query {
            read_set: (0..seed % 5).map(ObjectId).collect(),
            epsilon_limit: seed,
        },
        11 => Frame::QueryOk(QueryOutcome {
            values: vec![Value::Int(seed as i64), Value::Text("q".into())],
            charged: seed % 9,
            admitted: seed.is_multiple_of(2),
        }),
        12 => Frame::SnapshotOk {
            entries: (0..seed % 4)
                .map(|i| (ObjectId(i), Value::Int(i as i64)))
                .collect(),
        },
        13 => Frame::StatusOk {
            settled: seed.is_multiple_of(2),
            outbound_pending: seed % 23,
            epoch: seed % 7,
            view: seed % 11,
            coordinator: seed.is_multiple_of(3),
            ckpt_seq: seed % 13,
            ckpt_covered: seed % 29,
        },
        14 => Frame::Checkpoint,
        15 => Frame::DecisionOk { et },
        16 => Frame::Ping {
            view: seed % 9,
            from: site,
        },
        17 => Frame::StartViewChange {
            view: seed % 9,
            from: site,
        },
        18 => Frame::DoViewChange {
            view: seed % 9,
            from: site,
            evidence: evidence(seed, ts),
        },
        19 => Frame::StartView {
            view: seed % 9,
            evidence: evidence(seed, ts),
        },
        20 => Frame::SnapshotRequest { offset: seed },
        21 => Frame::SnapshotChunk {
            total_len: seed % 64 + seed % 7,
            offset: seed % 64,
            bytes: (0..seed % 7).map(|i| i as u8).collect(),
        },
        22 => Frame::CheckpointOk {
            seq: seed % 13,
            covered: seed % 101,
        },
        _ => Frame::EventOk {
            dropped: seed % 5,
            events: (0..seed % 4)
                .map(|i| (i, seed % 1_000 + i, event(seed, seed / 4 + i)))
                .collect(),
        },
    }
}

/// A journal record of kind `kind` (mod 4: MSet, decision, view,
/// cursors), with seed-derived fields.
fn record_from(seed: u64, kind: u8) -> Record {
    match kind % 4 {
        0 => match frame_from(seed, 1) {
            Frame::MSet(mset) => Record::MSet(mset),
            other => unreachable!("variant 1 is an MSet, not {other:?}"),
        },
        1 => Record::Decision {
            et: EtId(seed % 97),
            commit: seed.is_multiple_of(2),
        },
        2 => Record::View(seed % 9),
        _ => Record::Cursors(
            (0..seed % 6)
                .map(|j| (!(seed + j).is_multiple_of(3)).then_some(seed.wrapping_mul(j)))
                .collect(),
        ),
    }
}

/// Every strict prefix of every record kind's encoding is an error —
/// a torn journal tail never boots as a shorter record — and no prefix
/// panics the decoder.
#[test]
fn every_truncation_of_every_record_kind_errors() {
    for seed in 0..32u64 {
        for kind in 0..4 {
            let record = record_from(seed, kind);
            let raw = encode_record(&record);
            assert_eq!(decode_record(&raw), Ok(record));
            for cut in 0..raw.len() {
                let prefix = Bytes::copy_from_slice(&raw[..cut]);
                assert!(decode_record(&prefix).is_err(), "kind {kind}, cut {cut}");
            }
        }
    }
}

/// The `i`-th [`Event`] variant (mod 13), with seed-derived fields.
fn event(seed: u64, i: u64) -> Event {
    let et = EtId(seed % 97);
    let site = SiteId(seed % 5);
    match i % 13 {
        0 => Event::Span(
            SpanRec::new(SpanStage::Apply, et)
                .with_gseq(Some(SeqNo(i)))
                .with_t0(if seed.is_multiple_of(2) { Some(seed) } else { None }),
        ),
        1 => Event::DuplicateDelivery { et },
        2 => Event::DuplicateSubmit {
            client: ClientId(seed % 7),
            seq: seed % 19,
            et,
        },
        3 => Event::Hello { site, epoch: seed },
        4 => Event::ViewChangeStart { view: seed % 9 },
        5 => Event::ViewInstall {
            view: seed % 9,
            coordinator: site,
        },
        6 => Event::CkptCut { covered: seed % 101 },
        7 => Event::CkptRestore {
            covered: seed % 101,
            view: seed % 9,
        },
        8 => Event::CkptInstall {
            seq: seed % 13,
            covered: seed % 101,
        },
        9 => Event::CkptTruncate {
            through: seed % 89,
            retired: seed % 83,
        },
        10 => Event::CkptCatchUp {
            seq: seed % 13,
            covered: seed % 101,
            from: site,
        },
        11 => Event::CkptFailed {
            seq: seed % 13,
            detail: format!("io error {seed}"),
        },
        _ => Event::Boot {
            epoch: seed % 7,
            snapshot: if seed.is_multiple_of(2) { Some((seed % 13, seed % 101)) } else { None },
            replayed: seed % 31,
            view: seed % 9,
        },
    }
}

/// Tag 0x03 carried the per-entry link ack, 0x08 the pre-failover
/// control snapshot, 0x18/0x19 the audit-log request and reply. They are
/// retired, never reassigned: whatever follows them, the decoder says
/// `BadTag`, never panics.
#[test]
fn retired_tags_are_bad_tags() {
    for tag in [0x03u8, 0x08, 0x18, 0x19] {
        for body in [&[][..], &[0; 9][..], &encode_frame(&Frame::Status)[..]] {
            let raw = [&[tag][..], body].concat();
            assert_eq!(
                decode_frame(&Bytes::from(raw)),
                Err(WireError::BadTag { field: "frame", tag })
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic the frame decoder.
    #[test]
    fn decode_frame_is_total(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_frame(&Bytes::from(bytes));
    }

    /// Arbitrary bytes never panic the MSet decoder.
    #[test]
    fn decode_mset_is_total(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_mset(&Bytes::from(bytes));
    }

    /// Arbitrary bytes never panic the journal record decoder.
    #[test]
    fn decode_record_is_total(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_record(&Bytes::from(bytes));
    }

    /// Every record kind round-trips, and a single-byte corruption of
    /// one decodes to *some* record or errors, never panics.
    #[test]
    fn mutated_records_never_panic(
        seed in any::<u64>(),
        kind in any::<u8>(),
        at in any::<u64>(),
        byte in any::<u8>(),
    ) {
        let record = record_from(seed, kind);
        let mut raw = encode_record(&record).to_vec();
        prop_assert_eq!(decode_record(&Bytes::copy_from_slice(&raw)), Ok(record));
        let i = (at % raw.len() as u64) as usize;
        raw[i] = byte;
        let _ = decode_record(&Bytes::from(raw));
    }

    /// Every frame family round-trips through encode/decode.
    #[test]
    fn frames_round_trip(seed in any::<u64>(), variant in any::<u8>()) {
        let frame = frame_from(seed, variant);
        let bytes = encode_frame(&frame);
        prop_assert_eq!(decode_frame(&bytes), Ok(frame));
    }

    /// Single-byte corruption of a valid encoding is total: it decodes
    /// to *some* frame or errors, and never panics.
    #[test]
    fn mutated_frames_never_panic(
        seed in any::<u64>(),
        variant in any::<u8>(),
        at in any::<u64>(),
        byte in any::<u8>(),
    ) {
        let frame = frame_from(seed, variant);
        let mut raw = encode_frame(&frame).to_vec();
        let i = (at % raw.len() as u64) as usize;
        raw[i] = byte;
        let _ = decode_frame(&Bytes::from(raw));
    }

    /// Every strict prefix of a valid frame encoding fails to decode
    /// (no silent short reads), and never panics.
    #[test]
    fn truncated_frames_error(
        seed in any::<u64>(),
        variant in any::<u8>(),
        at in any::<u64>(),
    ) {
        let frame = frame_from(seed, variant);
        let raw = encode_frame(&frame);
        let cut = (at % raw.len() as u64) as usize;
        let prefix = Bytes::copy_from_slice(&raw.as_slice()[..cut]);
        prop_assert!(decode_frame(&prefix).is_err());
    }

    /// MSet encodings embedded in frames agree with the bare codec.
    #[test]
    fn mset_frame_agrees_with_bare_codec(seed in any::<u64>()) {
        let frame = frame_from(seed, 1);
        if let Frame::MSet(mset) = &frame {
            let bare = encode_mset(mset);
            let framed = encode_frame(&frame);
            // Frame = 1 tag byte + the bare MSet encoding.
            prop_assert_eq!(&framed.as_slice()[1..], bare.as_slice());
        }
    }
}

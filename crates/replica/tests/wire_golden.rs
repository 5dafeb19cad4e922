//! Golden bytes for every wire, journal and snapshot layout.
//!
//! Each literal below is the encoding of one fixed value, frozen when
//! the layouts were last known good. The codec may be restructured
//! freely, but these bytes may not move: they are what live peers put
//! on the wire, what journals hold on disk, and what snapshot files
//! contain, so a moved byte is a daemon that can no longer boot from
//! its own files. Every literal must also decode back
//! to its value.

use std::collections::BTreeSet;
use std::fmt::Debug;

use bytes::Bytes;
use esr_core::ids::{ClientId, EtId, LamportTs, ObjectId, SeqNo, SiteId, VersionTs};
use esr_core::op::{ObjectOp, Operation};
use esr_core::value::Value;
use esr_replica::ckpt::{CommuCkpt, CompeCkpt, OrdupCkpt, RituCkpt, RituMvCkpt, SiteCkpt};
use esr_replica::ctrl::{Evidence, Record};
use esr_replica::mset::{MSet, OrderTag};
use esr_replica::site::QueryOutcome;
use esr_replica::span::{Event, SpanRec, SpanStage};
use esr_replica::wire::{
    decode_frame, decode_mset, decode_record, encode_frame, encode_mset, encode_record, Frame,
};
use esr_replica::{
    decode_payload, decode_site_ckpt, encode_payload, encode_site_ckpt, CkptPayload,
};
use esr_storage::recovery_log::{AppliedOp, LogRecord};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Option<Vec<u8>> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(s.get(i..i + 2)?, 16).ok())
        .collect()
}

/// Checks that `values` encode to exactly `golden`, in order, and that
/// every literal decodes back to its value.
fn check<T: PartialEq + Debug>(
    golden: &[&str],
    values: Vec<T>,
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Option<T>,
) {
    let actual: Vec<String> = values.iter().map(|v| hex(&encode(v))).collect();
    assert_eq!(golden, actual, "an encoding moved");
    for (literal, value) in golden.iter().zip(values) {
        let decoded = unhex(literal).and_then(|raw| decode(&raw));
        assert_eq!(decoded, Some(value), "{literal} decodes");
    }
}

fn check_frames(golden: &[&str], frames: Vec<Frame>) {
    check(
        golden,
        frames,
        |f| encode_frame(f).to_vec(),
        |raw| decode_frame(&Bytes::copy_from_slice(raw)).ok(),
    );
}

fn v(time: u64, client: u64) -> VersionTs {
    VersionTs::new(time, ClientId(client))
}

fn evidence(completed: &[u64], decisions: &[(u64, bool)], vtnc: Option<VersionTs>) -> Evidence {
    let mut e = Evidence::default();
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

/// One op of every `Operation` shape, with every `Value` shape.
fn every_op() -> Vec<ObjectOp> {
    vec![
        ObjectOp::new(ObjectId(0), Operation::Read),
        ObjectOp::new(ObjectId(1), Operation::Write(Value::Int(-7))),
        ObjectOp::new(ObjectId(2), Operation::Write(Value::Text("héllo".into()))),
        ObjectOp::new(
            ObjectId(3),
            Operation::Write(Value::Set(BTreeSet::from([-1, 0, 7]))),
        ),
        ObjectOp::new(ObjectId(4), Operation::Write(Value::Text(String::new()))),
        ObjectOp::new(ObjectId(5), Operation::Write(Value::Set(BTreeSet::new()))),
        ObjectOp::new(ObjectId(6), Operation::Incr(i64::MAX)),
        ObjectOp::new(ObjectId(7), Operation::Decr(i64::MIN)),
        ObjectOp::new(ObjectId(8), Operation::MulBy(3)),
        ObjectOp::new(ObjectId(9), Operation::DivBy(-2)),
        ObjectOp::new(ObjectId(10), Operation::InsertElem(42)),
        ObjectOp::new(ObjectId(11), Operation::RemoveElem(-42)),
        ObjectOp::new(
            ObjectId(12),
            Operation::TimestampedWrite(v(99, 3), Value::Int(5)),
        ),
    ]
}

/// Every order tag, each with `client` and `t0` absent and present,
/// then one MSet carrying every operation and value shape.
fn msets() -> Vec<MSet> {
    let orders = [
        OrderTag::Unordered,
        OrderTag::Sequenced(SeqNo(77)),
        OrderTag::Lamport {
            ts: LamportTs::new(5, SiteId(2)),
            fifo: SeqNo(4),
        },
    ];
    let mut out = Vec::new();
    for order in orders {
        for (client, t0) in [(false, false), (true, false), (false, true), (true, true)] {
            let mut m = MSet::new(
                EtId(12),
                SiteId(2),
                vec![ObjectOp::new(ObjectId(1), Operation::Incr(1))],
            );
            m.order = order;
            if client {
                m = m.from_client(ClientId(9), 17);
            }
            if t0 {
                m = m.traced(1_723_000_000_000_000);
            }
            out.push(m);
        }
    }
    out.push(MSet::new(EtId(0), SiteId(0), vec![]));
    out.push(
        MSet::new(EtId(u64::MAX), SiteId(1), every_op())
            .sequenced(SeqNo(3))
            .from_client(ClientId(4), 11)
            .traced(55),
    );
    out
}

/// One frame of every variant (and both shapes of each optional field).
fn frames() -> Vec<Frame> {
    let mset = MSet::new(
        EtId(12),
        SiteId(2),
        vec![
            ObjectOp::new(ObjectId(1), Operation::Incr(3)),
            ObjectOp::new(
                ObjectId(2),
                Operation::TimestampedWrite(v(5, 1), Value::Text("x".into())),
            ),
        ],
    )
    .sequenced(SeqNo(4));
    vec![
        Frame::Hello {
            site: SiteId(3),
            epoch: 7,
        },
        Frame::MSet(mset.clone()),
        Frame::Applied {
            site: SiteId(1),
            et: EtId(9),
            version: None,
        },
        Frame::Applied {
            site: SiteId(2),
            et: EtId(10),
            version: Some(v(44, 6)),
        },
        Frame::Complete { et: EtId(11) },
        Frame::Vtnc { ts: v(17, 0) },
        Frame::Decision {
            et: EtId(13),
            commit: true,
        },
        Frame::Decision {
            et: EtId(14),
            commit: false,
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
            evidence: Box::new(evidence(&[5, 1], &[(2, false), (3, true)], Some(v(6, 1)))),
        },
        Frame::DoViewChange {
            view: 1,
            from: SiteId(2),
            evidence: Box::default(),
        },
        Frame::StartView {
            view: 4,
            evidence: Box::new(evidence(&[1], &[(2, true)], None)),
        },
        Frame::ForwardDecision {
            et: EtId(8),
            commit: false,
        },
        Frame::SnapshotRequest { offset: 65_536 },
        Frame::SnapshotChunk {
            total_len: 10,
            offset: 3,
            bytes: vec![1, 2, 3, 4, 5, 6, 0xFF],
        },
        Frame::SnapshotChunk {
            total_len: 0,
            offset: 0,
            bytes: vec![],
        },
        Frame::Submit(mset.clone().from_client(ClientId(4), 11).traced(9_000)),
        Frame::SubmitOk { et: EtId(12) },
        Frame::Query {
            read_set: vec![ObjectId(1), ObjectId(2)],
            epsilon_limit: u64::MAX,
        },
        Frame::QueryOk(QueryOutcome {
            values: vec![
                Value::Int(-4),
                Value::Text("t".into()),
                Value::Set(BTreeSet::from([1, 2])),
            ],
            charged: 3,
            admitted: true,
        }),
        Frame::QueryOk(QueryOutcome::rejected()),
        Frame::Snapshot,
        Frame::SnapshotOk {
            entries: vec![
                (ObjectId(0), Value::Int(1)),
                (ObjectId(1), Value::Text("t".into())),
            ],
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
        Frame::DecisionOk { et: EtId(13) },
        Frame::Metrics,
        Frame::MetricsOk {
            text: "esr_msets_applied_total{site=\"0\"} 3\n".to_owned(),
        },
        Frame::Checkpoint,
        Frame::CheckpointOk {
            seq: 3,
            covered: 812,
        },
        Frame::EventQuery { et: u64::MAX },
        Frame::EventOk {
            dropped: 0,
            events: vec![],
        },
    ]
}

/// Every `Event` variant, spans in every option shape.
fn events() -> Vec<Event> {
    vec![
        Event::Span(SpanRec {
            stage: SpanStage::Submit,
            et: None,
            peer: None,
            version: None,
            gseq: None,
            t0: None,
            commit: None,
        }),
        Event::Span(SpanRec {
            stage: SpanStage::Decision,
            et: Some(EtId(12)),
            peer: Some(SiteId(1)),
            version: Some(v(5, 1)),
            gseq: Some(SeqNo(4)),
            t0: Some(990),
            commit: Some(true),
        }),
        Event::Span(SpanRec::new(SpanStage::DecisionCert, EtId(13)).with_commit(false)),
        Event::Span(SpanRec::vtnc(SpanStage::VtncCert, v(5, 1))),
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
        Event::CkptRestore {
            covered: 9,
            view: 1,
        },
        Event::CkptInstall { seq: 2, covered: 9 },
        Event::CkptTruncate {
            through: 8,
            retired: 7,
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
    ]
}

/// Each method's checkpoint image, the COMPE one with a recovery log
/// and every disposition.
fn site_ckpts() -> Vec<SiteCkpt> {
    let ts = v(7, 2);
    let held = MSet::new(
        EtId(9),
        SiteId(1),
        vec![ObjectOp::new(ObjectId(3), Operation::Incr(4))],
    )
    .sequenced(SeqNo(5))
    .from_client(ClientId(1), 2);
    vec![
        SiteCkpt::Ordup(OrdupCkpt {
            values: vec![
                (ObjectId(0), Value::Int(3)),
                (ObjectId(1), Value::Text("x".into())),
            ],
            next_seq: SeqNo(5),
            holdback: vec![held],
            applied_ets: vec![EtId(1), EtId(2)],
            applied: 2,
            redelivered: 1,
        }),
        SiteCkpt::Commu(CommuCkpt {
            values: vec![(ObjectId(4), Value::Set(BTreeSet::from([3])))],
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
                (ObjectId(1), v(1, 0), Value::Int(1)),
                (ObjectId(1), ts, Value::Int(2)),
            ],
            vtnc: v(1, 0),
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
                    ops: vec![
                        AppliedOp {
                            op: ObjectOp::new(ObjectId(0), Operation::Incr(12)),
                            before: Value::Int(0),
                        },
                        AppliedOp {
                            op: ObjectOp::new(
                                ObjectId(2),
                                Operation::Write(Value::Text("b".into())),
                            ),
                            before: Value::Text("a".into()),
                        },
                    ],
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

fn payload() -> CkptPayload {
    CkptPayload {
        covered: 7,
        covered_through: Some(41),
        view: 3,
        frontier: vec![(0, 4), (1, 3)],
        journaled: vec![EtId(1), EtId(2), EtId(9)],
        client_table: vec![(5, 1, EtId(2)), (5, 2, EtId(9))],
        applied_log: vec![(EtId(1), None), (EtId(2), Some(v(10, 5)))],
        evidence: evidence(&[1], &[(2, true), (9, false)], Some(v(10, 5))),
        site: SiteCkpt::RituMv(RituMvCkpt {
            versions: vec![(ObjectId(3), v(10, 5), Value::Int(4))],
            vtnc: v(10, 5),
            newest_installed: 2,
            applied_ets: vec![EtId(1), EtId(2)],
            applied: 2,
            redelivered: 0,
        }),
    }
}

const FRAMES: &[&str] = &[
    "0100000000000000030000000000000007",
    "02000000000000000c0000000000000002010000000000000004000000020000000000000001020000000000000003000000000000000208000000000000000500000000000000010100000001780000",
    "040000000000000001000000000000000900",
    "040000000000000002000000000000000a01000000000000002c0000000000000006",
    "05000000000000000b",
    "0600000000000000110000000000000000",
    "07000000000000000d01",
    "07000000000000000e00",
    "0900000000000000030000000000000000",
    "0a00000000000000040000000000000002",
    "0b000000000000000400000000000000010000000200000000000000050000000000000001000000020000000000000002000000000000000003010100000000000000060000000000000001",
    "0b00000000000000010000000000000002000000000000000000",
    "0c00000000000000040000000100000000000000010000000100000000000000020100",
    "0d000000000000000800",
    "0e0000000000010000",
    "0f000000000000000a000000000000000300000007010203040506ff",
    "0f0000000000000000000000000000000000000000",
    "10000000000000000c000000000000000201000000000000000400000002000000000000000102000000000000000300000000000000020800000000000000050000000000000001010000000178010000000000000004000000000000000b010000000000002328",
    "11000000000000000c",
    "12ffffffffffffffff0000000200000000000000010000000000000002",
    "130100000000000000030000000300fffffffffffffffc010000000174020000000200000000000000010000000000000002",
    "1300000000000000000000000000",
    "14",
    "150000000200000000000000000000000000000000010000000000000001010000000174",
    "16",
    "170100000000000000050000000000000002000000000000000300000000000000000400000000000000be",
    "1a000000000000000d",
    "1b",
    "1c000000246573725f6d736574735f6170706c6965645f746f74616c7b736974653d2230227d20330a",
    "1f",
    "200000000000000003000000000000032c",
    "21ffffffffffffffff",
    "22000000000000000000000000",
];

const EVENTS: &[&str] = &[
    "22000000000000000000000001000000000000000700000000000003e80000000000000000",
    "22000000000000000100000001000000000000000800000000000003e9000b01000000000000000c01000000000000000101000000000000000500000000000000010100000000000000040100000000000003de0101",
    "22000000000000000200000001000000000000000900000000000003ea000a01000000000000000d000000000100",
    "22000000000000000300000001000000000000000a00000000000003eb000800000100000000000000050000000000000001000000",
    "22000000000000000400000001000000000000000b00000000000003ec01000000000000000c",
    "22000000000000000500000001000000000000000c00000000000003ed0200000000000000070000000000000003000000000000000c",
    "22000000000000000600000001000000000000000d00000000000003ee0300000000000000020000000000000004",
    "22000000000000000700000001000000000000000e00000000000003ef040000000000000001",
    "22000000000000000800000001000000000000000f00000000000003f00500000000000000010000000000000001",
    "22000000000000000900000001000000000000001000000000000003f1060000000000000009",
    "22000000000000000a00000001000000000000001100000000000003f20700000000000000090000000000000001",
    "22000000000000000b00000001000000000000001200000000000003f30800000000000000020000000000000009",
    "22000000000000000c00000001000000000000001300000000000003f40900000000000000080000000000000007",
    "22000000000000000d00000001000000000000001400000000000003f50a000000000000000200000000000000090000000000000000",
    "22000000000000000e00000001000000000000001500000000000003f60b0000000000000003000000174e6f207370616365206c656674206f6e20646576696365",
    "22000000000000000f00000001000000000000001600000000000003f70c0000000000000002000000000000000100000000000000010100000000000000020000000000000009",
    "22000000000000001000000001000000000000001700000000000003f80c00000000000000010000000000000000000000000000000000",
];

const MSETS: &[&str] = &[
    "000000000000000c0000000000000002000000000100000000000000010200000000000000010000",
    "000000000000000c000000000000000200000000010000000000000001020000000000000001010000000000000009000000000000001100",
    "000000000000000c000000000000000200000000010000000000000001020000000000000001000100061f0f32f2b000",
    "000000000000000c00000000000000020000000001000000000000000102000000000000000101000000000000000900000000000000110100061f0f32f2b000",
    "000000000000000c000000000000000201000000000000004d0000000100000000000000010200000000000000010000",
    "000000000000000c000000000000000201000000000000004d000000010000000000000001020000000000000001010000000000000009000000000000001100",
    "000000000000000c000000000000000201000000000000004d000000010000000000000001020000000000000001000100061f0f32f2b000",
    "000000000000000c000000000000000201000000000000004d00000001000000000000000102000000000000000101000000000000000900000000000000110100061f0f32f2b000",
    "000000000000000c0000000000000002020000000000000005000000000000000200000000000000040000000100000000000000010200000000000000010000",
    "000000000000000c000000000000000202000000000000000500000000000000020000000000000004000000010000000000000001020000000000000001010000000000000009000000000000001100",
    "000000000000000c000000000000000202000000000000000500000000000000020000000000000004000000010000000000000001020000000000000001000100061f0f32f2b000",
    "000000000000000c00000000000000020200000000000000050000000000000002000000000000000400000001000000000000000102000000000000000101000000000000000900000000000000110100061f0f32f2b000",
    "0000000000000000000000000000000000000000000000",
    "ffffffffffffffff00000000000000010100000000000000030000000d00000000000000000000000000000000010100fffffffffffffff9000000000000000201010000000668c3a96c6c6f0000000000000003010200000003ffffffffffffffff00000000000000000000000000000007000000000000000401010000000000000000000000050102000000000000000000000006027fffffffffffffff00000000000000070380000000000000000000000000000008040000000000000003000000000000000905fffffffffffffffe000000000000000a06000000000000002a000000000000000b07ffffffffffffffd6000000000000000c0800000000000000630000000000000003000000000000000005010000000000000004000000000000000b010000000000000037",
];

const SITE_CKPTS: &[&str] = &[
    "00000000020000000000000000000000000000000003000000000000000101000000017800000000000000050000000100000000000000090000000000000001010000000000000005000000010000000000000003020000000000000004010000000000000001000000000000000200000000020000000000000001000000000000000200000000000000020000000000000001",
    "01000000010000000000000004020000000100000000000000030000000200000000000000030000000200000000000000040000000000000005000000000000000400000000000000020000000000000003000000000000000400000000000000020000000000000000",
    "020000000100000000000000010000000000000007000000000000000200000000000000000a00000001000000000000000600000001000000000000000100000001000000000000000600000000000000010000000000000002",
    "030000000200000000000000010000000000000001000000000000000000000000000000000100000000000000010000000000000007000000000000000200000000000000000200000000000000010000000000000000000000000000000700000001000000000000000800000000000000010000000000000000",
    "0400000001000000000000000000000000000000000c0000000200000000000000010000000002000000000000000002000000000000000c0000000000000000000000000000000002010100000001620100000001610000000000000002010000000000000004000000000000000100000000000000000201000000000000000302000000000000000403000000000000000200000000000000010000000000000000",
];

const PAYLOADS: &[&str] = &[
    "00000000000000070100000000000000290000000000000003000000020000000000000000000000000000000400000000000000010000000000000003000000030000000000000001000000000000000200000000000000090000000200000000000000050000000000000001000000000000000200000000000000050000000000000002000000000000000900000002000000000000000100000000000000000201000000000000000a00000000000000050000000100000000000000010000000200000000000000020100000000000000090001000000000000000a00000000000000050000006203000000010000000000000003000000000000000a0000000000000005000000000000000004000000000000000a00000000000000050000000000000002000000020000000000000001000000000000000200000000000000020000000000000000",
];

#[test]
fn every_frame_variant_is_golden() {
    check_frames(FRAMES, frames());
}

/// Events travel only inside `EventOk`: one frame per variant.
#[test]
fn every_event_variant_is_golden() {
    let frames = events()
        .into_iter()
        .enumerate()
        .map(|(i, e)| Frame::EventOk {
            dropped: i as u64,
            events: vec![(7 + i as u64, 1_000 + i as u64, e)],
        })
        .collect();
    check_frames(EVENTS, frames);
}

#[test]
fn every_mset_shape_is_golden() {
    check(
        MSETS,
        msets(),
        |m| encode_mset(m).to_vec(),
        |raw| decode_mset(&Bytes::copy_from_slice(raw)).ok(),
    );
}

/// A journal record is a tag byte and its kind's fields. An MSet and a
/// decision take the tags of the frames that carry them, so a decision
/// record is its client's `Decision` frame, and an MSet record the
/// `MSet` frame: the MSet layout behind a 0x02.
#[test]
fn every_journal_record_kind_is_golden() {
    let records = vec![
        Record::MSet(msets().remove(0)),
        Record::Decision {
            et: EtId(13),
            commit: false,
        },
        Record::Decision {
            et: EtId(9),
            commit: true,
        },
        Record::View(3),
        Record::Cursors(vec![Some(41), None, Some(0)]),
    ];
    check(
        &[
            &format!("02{}", MSETS[0]),
            "07000000000000000d00",
            "07000000000000000901",
            "300000000000000003",
            "310000000301000000000000002900010000000000000000",
        ],
        records,
        |r| encode_record(r).to_vec(),
        |raw| decode_record(&Bytes::copy_from_slice(raw)).ok(),
    );
}

#[test]
fn every_site_checkpoint_is_golden() {
    check(
        SITE_CKPTS,
        site_ckpts(),
        |c| encode_site_ckpt(c).to_vec(),
        |raw| decode_site_ckpt(raw).ok(),
    );
}

#[test]
fn a_full_checkpoint_payload_is_golden() {
    check(PAYLOADS, vec![payload()], encode_payload, decode_payload);
}

//! Structure-aware mutation fuzzing for the wire codec.
//!
//! `wire_totality.rs` proves decode totality on byte soup and
//! single-byte corruption; this harness goes after the *accepted*
//! space. A deterministic fuzzer seeds a corpus from valid frame
//! encodings, then mutates with codec-shaped operators — byte/bit
//! flips, truncations, tail extensions, zero/0xFF runs over
//! length-prefix positions, and cross-frame splices — and asserts two
//! properties on every mutant:
//!
//! 1. **totality**: `decode_frame` returns a value or an error, never
//!    a panic (the harness itself is the crash detector);
//! 2. **re-encode closure**: any *accepted* mutant (even a
//!    non-canonical encoding) decodes to a frame whose re-encoding
//!    decodes back to the same frame — the codec's accepted set maps
//!    into its canonical set, so a frame laundered through a hostile
//!    byte-stream can always be durably re-queued and re-read.
//!
//! The journal record decoder gets the same treatment from a corpus of
//! every record kind: boot decodes whatever bytes the journal file
//! holds.
//!
//! Everything is seed-deterministic (xorshift64*), so a failure
//! reproduces by iteration number alone.

use bytes::Bytes;
use esr_core::ids::{ClientId, EtId, ObjectId, SeqNo, SiteId, VersionTs};
use esr_core::op::{ObjectOp, Operation};
use esr_core::value::Value;
use esr_replica::ctrl::{Evidence, Record};
use esr_replica::mset::MSet;
use esr_replica::site::QueryOutcome;
use esr_replica::span::{Event, SpanRec, SpanStage};
use esr_replica::wire::{
    decode_frame, decode_mset, decode_record, encode_frame, encode_record, Frame, WireError,
};

/// xorshift64* — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

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

/// The corpus generator: one representative of every frame family,
/// parameterized so repeated seeds diversify field values.
fn corpus(seed: u64) -> Vec<Frame> {
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
        mset.traced(seed.wrapping_mul(37))
    } else {
        mset
    };
    vec![
        Frame::Hello { site, epoch: seed },
        Frame::MSet(mset.clone()),
        Frame::Applied {
            site,
            et,
            version: if seed.is_multiple_of(2) { Some(ts) } else { None },
        },
        Frame::Complete { et },
        Frame::Vtnc { ts },
        Frame::Decision {
            et,
            commit: seed.is_multiple_of(2),
        },
        Frame::Submit(mset),
        Frame::SubmitOk { et },
        Frame::Query {
            read_set: (0..seed % 5).map(ObjectId).collect(),
            epsilon_limit: seed,
        },
        Frame::QueryOk(QueryOutcome {
            values: vec![Value::Int(seed as i64), Value::Text("fuzz".into())],
            charged: seed % 9,
            admitted: seed.is_multiple_of(2),
        }),
        Frame::SnapshotOk {
            entries: (0..seed % 4)
                .map(|i| (ObjectId(i), Value::Int(i as i64)))
                .collect(),
        },
        Frame::StatusOk {
            settled: seed.is_multiple_of(2),
            outbound_pending: seed % 23,
            epoch: seed % 7,
            view: seed % 11,
            coordinator: seed.is_multiple_of(3),
            ckpt_seq: seed % 13,
            ckpt_covered: seed % 29,
        },
        Frame::DecisionOk { et },
        Frame::Ping {
            view: seed % 9,
            from: site,
        },
        Frame::StartViewChange {
            view: seed % 9,
            from: site,
        },
        Frame::DoViewChange {
            view: seed % 9,
            from: site,
            evidence: evidence(seed, ts),
        },
        Frame::StartView {
            view: seed % 9,
            evidence: evidence(seed, ts),
        },
        Frame::ForwardDecision {
            et,
            commit: seed.is_multiple_of(2),
        },
        Frame::SnapshotRequest { offset: seed },
        Frame::SnapshotChunk {
            total_len: seed % 64 + seed % 9,
            offset: seed % 64,
            bytes: (0..seed % 9).map(|i| i as u8).collect(),
        },
        Frame::Checkpoint,
        Frame::CheckpointOk {
            seq: seed % 13,
            covered: seed % 101,
        },
        Frame::EventQuery { et: seed % 97 },
        // Thirteen consecutive variants from a seed-dependent start:
        // every corpus frame carries every `Event` variant.
        Frame::EventOk {
            dropped: seed % 7,
            events: (0..13)
                .map(|i| (i, seed % 1_000 + i, event(seed, seed + i)))
                .collect(),
        },
    ]
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

/// One mutation pass over `base` (never empties the buffer).
fn mutate(rng: &mut Rng, base: &[u8], other: &[u8]) -> Vec<u8> {
    let mut out = base.to_vec();
    match rng.below(7) {
        // Byte overwrite.
        0 => {
            let i = rng.below(out.len());
            out[i] = rng.next() as u8;
        }
        // Single bit flip.
        1 => {
            let i = rng.below(out.len());
            out[i] ^= 1 << rng.below(8);
        }
        // Truncate (keep the tag byte when possible).
        2 => {
            let keep = 1 + rng.below(out.len());
            out.truncate(keep);
        }
        // Extend with random tail bytes (trailing garbage).
        3 => {
            for _ in 0..=rng.below(9) {
                out.push(rng.next() as u8);
            }
        }
        // Run of 0x00 or 0xFF — hits length prefixes with tiny/huge
        // values, probing allocation and bounds handling.
        4 => {
            let i = rng.below(out.len());
            let fill = if rng.below(2) == 0 { 0x00 } else { 0xFF };
            let n = (1 + rng.below(8)).min(out.len() - i);
            out[i..i + n].fill(fill);
        }
        // Splice: head of this frame + tail of another family, so
        // variant-specific parsers see other variants' field layouts.
        5 => {
            let cut = rng.below(out.len());
            let from = rng.below(other.len());
            out.truncate(cut);
            out.extend_from_slice(&other[from..]);
            if out.is_empty() {
                out.push(rng.next() as u8);
            }
        }
        // Tag rewrite: valid body under every possible tag byte.
        _ => {
            out[0] = rng.next() as u8;
        }
    }
    out
}

fn check_mutant(raw: &[u8]) {
    let bytes = Bytes::copy_from_slice(raw);
    // Property 1: totality (a panic fails the test harness itself).
    if let Ok(frame) = decode_frame(&bytes) {
        // Property 2: accepted mutants re-encode into the canonical
        // set and survive the round trip.
        let reenc = encode_frame(&frame);
        match decode_frame(&reenc) {
            Ok(again) => assert_eq!(
                again, frame,
                "re-encode round trip diverged for accepted mutant {raw:02x?}"
            ),
            Err(e) => panic!(
                "accepted mutant {raw:02x?} re-encoded into a rejected payload: {e:?}"
            ),
        }
    }
    // The bare MSet decoder sees durable-queue payloads (same hostile
    // surface); totality must hold there too.
    let _ = decode_mset(&bytes);
    check_record_mutant(raw);
}

/// Totality and re-encode closure for `decode_record`, as
/// [`check_mutant`] checks them for frames.
fn check_record_mutant(raw: &[u8]) {
    if let Ok(record) = decode_record(&Bytes::copy_from_slice(raw)) {
        let again = decode_record(&encode_record(&record));
        assert_eq!(again, Ok(record), "accepted record mutant {raw:02x?} diverged");
    }
}

/// One journal record of every kind: the MSets and decisions of
/// [`corpus`]'s frames, a view, and the cursors of `sites` sites.
fn records(seed: u64) -> Vec<Record> {
    let mut records: Vec<Record> = corpus(seed)
        .into_iter()
        .filter_map(|frame| match frame {
            Frame::MSet(mset) => Some(Record::MSet(mset)),
            Frame::Decision { et, commit } => Some(Record::Decision { et, commit }),
            _ => None,
        })
        .collect();
    let sites = 1 + seed % 5;
    records.push(Record::View(seed % 9));
    records.push(Record::Cursors(
        (0..sites).map(|j| (j != seed % sites).then_some(seed * 3 + j)).collect(),
    ));
    records
}

#[test]
fn journal_record_mutation_fuzz() {
    let mut rng = Rng::new(0x5EED_CAFE_F00D_0002);
    let corpus: Vec<Vec<u8>> = (0..8u64)
        .flat_map(|s| records(s.wrapping_mul(0x9E37_79B9) + s))
        .map(|r| encode_record(&r).to_vec())
        .collect();
    let mut accepted = 0u64;
    for _ in 0..30_000 {
        let base = &corpus[rng.below(corpus.len())];
        let other = &corpus[rng.below(corpus.len())];
        let mut mutant = mutate(&mut rng, base, other);
        for _ in 0..rng.below(3) {
            let other = &corpus[rng.below(corpus.len())];
            mutant = mutate(&mut rng, &mutant, other);
        }
        if decode_record(&Bytes::copy_from_slice(&mutant)).is_ok() {
            accepted += 1;
        }
        check_record_mutant(&mutant);
    }
    assert!(accepted > 100, "only {accepted} record mutants accepted");
}

#[test]
fn structure_aware_mutation_fuzz() {
    let mut rng = Rng::new(0x5EED_CAFE_F00D_0001);
    let corpus: Vec<Vec<u8>> = (0..8u64)
        .flat_map(|s| corpus(s.wrapping_mul(0x9E37_79B9) + s))
        .map(|f| encode_frame(&f).to_vec())
        .collect();

    let iterations = 60_000;
    let mut accepted = 0u64;
    for _ in 0..iterations {
        let base = &corpus[rng.below(corpus.len())];
        let other = &corpus[rng.below(corpus.len())];
        // Stack 1–3 mutations so mutants drift beyond one edit.
        let mut mutant = mutate(&mut rng, base, other);
        for _ in 0..rng.below(3) {
            let other = &corpus[rng.below(corpus.len())];
            mutant = mutate(&mut rng, &mutant, other);
        }
        if decode_frame(&Bytes::copy_from_slice(&mutant)).is_ok() {
            accepted += 1;
        }
        check_mutant(&mutant);
    }
    // The fuzzer must actually exercise the accepted space — tag
    // rewrites and bit flips on valid encodings land inside it often.
    assert!(
        accepted > 100,
        "only {accepted} mutants accepted: mutation operators too destructive"
    );
}

#[test]
fn corpus_round_trips() {
    for seed in 0..32u64 {
        for frame in corpus(seed) {
            let enc = encode_frame(&frame);
            assert_eq!(decode_frame(&enc), Ok(frame));
        }
    }
}

/// 0x18/0x19 carried the audit-log request and reply. Retagging every
/// corpus body with them must yield `BadTag` — never a frame, never a
/// panic.
#[test]
fn retired_audit_tags_reject_every_corpus_body() {
    for frame in corpus(7) {
        let mut raw = encode_frame(&frame).to_vec();
        for tag in [0x18u8, 0x19] {
            raw[0] = tag;
            assert_eq!(
                decode_frame(&Bytes::copy_from_slice(&raw)),
                Err(WireError::BadTag { field: "frame", tag })
            );
        }
    }
}

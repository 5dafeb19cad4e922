//! Exhaustive crash-point recovery for the write-ahead apply journal.
//!
//! `queue_recovery.rs` proves the `FileQueue` substrate recovers the
//! complete-record prefix from a cut at sampled offsets; this test
//! climbs one layer and proves the *whole* recovery pipeline — torn
//! journal file → [`ApplyJournal::open`] → [`NodeCore::recover`] —
//! lands in exactly the reference state, for a cut at **every** byte
//! offset of the journal (every record boundary and every mid-record
//! position), for every replica-control method.
//!
//! The contract under test is the daemon's write-ahead discipline: a
//! crash may lose the suffix of the journal that was mid-write, but
//! every record that hit the disk whole must replay to the same state
//! a never-crashed site reached after applying that prefix — no
//! panic, no partial MSet, no double-apply, and the recovered core
//! must re-announce exactly the applies it recovered.

use esr::core::{ClientId, EtId, ObjectId, ObjectOp, Operation, SeqNo, SiteId, Value, VersionTs};
use esr::replica::mset::MSet;
use esr::replica::wire::Frame;
use esr::runtime::ctrl::{Effect, NodeCore, NodeEvent};
use esr::runtime::recovery::ApplyJournal;
use esr::runtime::state::{RtMethod, SiteState};
use esr::runtime::{decode_payload, encode_payload};
use esr::storage::snapshot;

const METHODS: [RtMethod; 5] = [
    RtMethod::Ordup,
    RtMethod::Commu,
    RtMethod::Ritu,
    RtMethod::RituMv,
    RtMethod::Compe,
];

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("esr-jcp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A 6-update workload shaped for `method`, origins cycling over the
/// peer sites, with dense timestamps for the RITU family and global
/// sequence numbers for ORDUP.
fn workload(method: RtMethod) -> Vec<MSet> {
    (0..6u64)
        .map(|i| {
            let et = EtId(i + 1);
            let origin = SiteId(1 + i % 2);
            let x = ObjectId(i % 3);
            match method {
                RtMethod::Ordup => {
                    MSet::new(et, origin, vec![ObjectOp::new(x, Operation::Incr(i as i64 + 1))])
                        .sequenced(SeqNo(i))
                }
                RtMethod::Commu | RtMethod::Compe => {
                    MSet::new(et, origin, vec![ObjectOp::new(x, Operation::Incr(i as i64 + 1))])
                }
                RtMethod::Ritu | RtMethod::RituMv => {
                    let ts = VersionTs::new(i + 1, ClientId(origin.raw()));
                    MSet::new(
                        et,
                        origin,
                        vec![ObjectOp::new(x, Operation::TimestampedWrite(ts, Value::Int(i as i64)))],
                    )
                }
            }
        })
        .collect()
}

/// Replays `entries` through the daemon's own pure recovery path and
/// returns the recovered core plus its recovery effects.
fn recover(method: RtMethod, entries: Vec<MSet>) -> (NodeCore, Vec<Effect>) {
    let site = SiteId(1);
    let state = SiteState::new(method, site);
    NodeCore::recover(state, method, site, 3, None, 0, entries)
}

#[test]
fn truncation_at_every_offset_recovers_the_record_prefix() {
    for method in METHODS {
        let msets = workload(method);
        let path = tmp(&format!("journal-{method:?}.q"));
        let _ = std::fs::remove_file(&path);

        // Build the journal, noting the file length after each record:
        // those are the exact record boundaries.
        let mut boundaries = vec![0u64];
        {
            let mut j = ApplyJournal::open(&path).unwrap();
            for m in &msets {
                j.record(m);
                boundaries.push(std::fs::metadata(&path).unwrap().len());
            }
        }
        let total = *boundaries.last().unwrap();

        for cut in 0..=total {
            // Cut the file at `cut` — the power-loss point.
            let bytes = std::fs::read(&path).unwrap();
            let torn_path = tmp(&format!("journal-{method:?}-cut{cut}.q"));
            std::fs::write(&torn_path, &bytes[..cut as usize]).unwrap();

            // How many whole records survived the cut.
            let survivors = boundaries.iter().filter(|b| **b <= cut).count() - 1;

            // Restart: reopen + decode + recover must never panic.
            let j = ApplyJournal::open(&torn_path).unwrap();
            let replayed = j.replay();
            assert_eq!(
                replayed,
                &msets[..survivors],
                "{method:?} cut at {cut}: replay is not the complete-record prefix"
            );
            assert_eq!(j.entries(), survivors as u64);

            let (recovered, effects) = recover(method, replayed);

            // Reference: a site that simply applied the surviving
            // prefix and never crashed.
            let (reference, _) = recover(method, Vec::new());
            let mut reference = reference;
            for m in &msets[..survivors] {
                reference.state.deliver(m.clone());
            }
            assert_eq!(
                recovered.state.snapshot(),
                reference.state.snapshot(),
                "{method:?} cut at {cut}: recovered state diverges from reference"
            );
            for m in &msets[..survivors] {
                assert!(
                    recovered.state.site().has_applied(m.et),
                    "{method:?} cut at {cut}: recovered site lost et {}",
                    m.et.raw()
                );
            }

            // The write-ahead contract's flip side: recovery
            // re-announces exactly the applies it recovered (for
            // methods that track completion), so a lost `Applied`
            // report is always replayed to the coordinator.
            let announced = effects
                .iter()
                .filter(|e| matches!(e, Effect::Send { .. }))
                .count();
            let expected = if method.tracks_completion() { survivors } else { 0 };
            assert_eq!(
                announced, expected,
                "{method:?} cut at {cut}: recovery announced {announced} applies, \
                 expected {expected}"
            );

            // Recovery is idempotent: journalling nothing new, a
            // second crash at a *clean* boundary replays to the same
            // state.
            let j2 = ApplyJournal::open(&torn_path).unwrap();
            let (again, _) = recover(method, j2.replay());
            assert_eq!(
                again.state.snapshot(),
                recovered.state.snapshot(),
                "{method:?} cut at {cut}: double recovery diverged"
            );

            std::fs::remove_file(&torn_path).ok();
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn appends_after_torn_recovery_extend_the_journal() {
    // A site that recovers from a torn tail keeps journalling: the
    // next incarnation sees prefix + new records.
    let method = RtMethod::Commu;
    let msets = workload(method);
    let path = tmp("journal-extend.q");
    let _ = std::fs::remove_file(&path);
    let boundary;
    {
        let mut j = ApplyJournal::open(&path).unwrap();
        j.record(&msets[0]);
        boundary = std::fs::metadata(&path).unwrap().len();
        j.record(&msets[1]);
    }
    // Tear the second record in half.
    let full = std::fs::metadata(&path).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(boundary + (full - boundary) / 2).unwrap();
    drop(f);
    {
        let mut j = ApplyJournal::open(&path).unwrap();
        assert_eq!(j.replay(), &msets[..1]);
        j.record(&msets[2]);
    }
    let j = ApplyJournal::open(&path).unwrap();
    assert_eq!(j.replay(), vec![msets[0].clone(), msets[2].clone()]);
    std::fs::remove_file(&path).ok();
}

/// Drives a fresh core through the first `upto` workload entries and
/// returns it (the checkpoint-cut donor and the never-crashed
/// reference).
fn driven(method: RtMethod, msets: &[MSet], upto: usize) -> NodeCore {
    let mut core = NodeCore::fresh(
        SiteState::new(method, SiteId(1)),
        method,
        SiteId(1),
        3,
        None,
    );
    for m in &msets[..upto] {
        core.step(NodeEvent::PeerFrame(Frame::MSet(m.clone())));
    }
    core
}

#[test]
fn snapshot_truncation_at_every_offset_falls_back_to_full_replay() {
    // A snapshot container cut at *any* byte short of its full length
    // must be rejected whole (the CRC/length checks), sending boot down
    // the full-replay path — and the one complete container must take
    // the restore path. Either way the recovered state matches the
    // never-crashed reference. This is the crash-during-install story:
    // install() goes tmp + rename, so a torn visible container only
    // exists if the disk lied — and even then nothing breaks.
    const CUT_AT: usize = 4;
    for method in METHODS {
        let msets = workload(method);
        let reference = driven(method, &msets, msets.len());

        let mut donor = driven(method, &msets, CUT_AT);
        let effects = donor.step(NodeEvent::Checkpoint {
            through: Some(CUT_AT as u64),
        });
        let payload = effects
            .into_iter()
            .find_map(|e| match e {
                Effect::Checkpoint(p) => Some(*p),
                _ => None,
            })
            .unwrap();
        let container = snapshot::encode_container(1, &encode_payload(&payload));

        let dir = tmp(&format!("snapcut-{method:?}"));
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = "site-1";
        let mut restores = 0;
        for cut in 0..=container.len() {
            let snap_path = dir.join(format!("{prefix}.ckpt-1.snap"));
            std::fs::write(&snap_path, &container[..cut]).unwrap();

            // The daemon's boot decision, in miniature.
            let recovered = match snapshot::load_newest(&dir, prefix)
                .unwrap()
                .and_then(|(_, bytes)| decode_payload(&bytes))
            {
                Some(p) => {
                    restores += 1;
                    let suffix: Vec<MSet> = msets
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| {
                            p.covered_through.is_none_or(|c| (*i as u64 + 1) > c)
                        })
                        .map(|(_, m)| m.clone())
                        .collect();
                    NodeCore::restore(method, SiteId(1), 3, None, 0, p, &suffix)
                        .unwrap()
                        .0
                }
                None => {
                    let (core, _) = recover(method, msets.clone());
                    core
                }
            };
            assert_eq!(
                recovered.state.snapshot(),
                reference.state.snapshot(),
                "{method:?} snapshot cut at {cut}: recovery diverged"
            );
            std::fs::remove_file(&snap_path).ok();
        }
        assert_eq!(
            restores, 1,
            "{method:?}: only the complete container may restore"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn truncation_ack_crash_at_every_offset_keeps_recovery_exact() {
    // Crash mid-*retirement*: retire_through appends one ack record
    // per covered entry, and a cut can land inside any of them. However
    // many acks survive, reopen + snapshot-restore + suffix replay must
    // reach the reference state — surviving covered entries are an
    // over-approximated suffix the restore path absorbs.
    const CUT_AT: u64 = 4;
    let method = RtMethod::Commu;
    let msets = workload(method);
    let reference = driven(method, &msets, msets.len());

    // The four covered records carry FileQueue ids 0..=3, so the cut's
    // entry-id high-water mark is 3.
    let mut donor = driven(method, &msets, CUT_AT as usize);
    let effects = donor.step(NodeEvent::Checkpoint { through: Some(CUT_AT - 1) });
    let payload = effects
        .into_iter()
        .find_map(|e| match e {
            Effect::Checkpoint(p) => Some(*p),
            _ => None,
        })
        .unwrap();
    let payload_bytes = encode_payload(&payload);

    // Journal all six entries, then retire the covered prefix; every
    // byte between "no acks" and "all acks" is a crash point.
    let path = tmp("journal-ackcut.q");
    let _ = std::fs::remove_file(&path);
    let before_acks;
    {
        let mut j = ApplyJournal::open(&path).unwrap();
        for m in &msets {
            j.record(m);
        }
        before_acks = std::fs::metadata(&path).unwrap().len();
        assert_eq!(j.retire_through(CUT_AT - 1), CUT_AT);
    }
    let full = std::fs::metadata(&path).unwrap().len();
    assert!(full > before_acks, "retirement must write ack records");
    let bytes = std::fs::read(&path).unwrap();

    for cut in before_acks..=full {
        let torn = tmp(&format!("journal-ackcut-{cut}.q"));
        std::fs::write(&torn, &bytes[..cut as usize]).unwrap();

        let j = ApplyJournal::open(&torn).unwrap();
        let live = j.live_entries();
        assert!(
            (2..=6).contains(&live),
            "cut at {cut}: implausible live count {live}"
        );
        let p = decode_payload(&payload_bytes).unwrap();
        let suffix: Vec<MSet> = j
            .replay_entries()
            .unwrap()
            .into_iter()
            .filter(|(id, _)| p.covered_through.is_none_or(|c| *id > c))
            .map(|(_, m)| m)
            .collect();
        let (recovered, _) =
            NodeCore::restore(method, SiteId(1), 3, None, 0, p, &suffix).unwrap();
        assert_eq!(
            recovered.state.snapshot(),
            reference.state.snapshot(),
            "cut at {cut}: post-retirement recovery diverged"
        );
        std::fs::remove_file(&torn).ok();
    }
    std::fs::remove_file(&path).ok();
}

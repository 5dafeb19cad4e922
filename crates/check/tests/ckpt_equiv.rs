//! Snapshot-equivalence sweep: for every method, workload, and cut
//! point, a node restored from a checkpoint of the journal prefix plus
//! a replay of the journal suffix must be indistinguishable from a
//! node that took the same inputs live — the same whole image (replica,
//! client table, ledger and view) — and hold the replica of a node that
//! saw everything live. This is the pure-core
//! statement of the daemon's restart path — one boot of the core fed
//! two inputs, a checkpoint image with the suffix past its cut
//! (`NodeCore::restore`) or the blank image with the whole journal
//! (`NodeCore::recover`) — checked exhaustively at every possible cut
//! rather than at the one cut a live run happens to take.
//!
//! Also swept: the *over-approximated* suffix (replaying the whole
//! journal on top of a restored image), which the daemon relies on
//! when a snapshot's `covered_through` is `None` after catch-up — the
//! replica's duplicate guard must absorb the already-covered prefix.

use esr_core::ids::{ClientId, EtId, LamportTs, ObjectId, SeqNo, SiteId, VersionTs};
use esr_core::op::{ObjectOp, Operation};
use esr_core::value::Value;
use esr_replica::mset::{MSet, OrderTag};
use esr_replica::wire::Frame;
use esr_runtime::ctrl::{Effect, NodeCore, NodeEvent};
use esr_runtime::state::{RtMethod, SiteState};
use esr_runtime::{decode_payload, encode_payload};

const SITES: usize = 3;
const SITE: SiteId = SiteId(1);

fn incr(et: u64, origin: u64, object: u64, by: i64) -> MSet {
    MSet::new(
        EtId(et),
        SiteId(origin),
        vec![ObjectOp::new(ObjectId(object), Operation::Incr(by))],
    )
}

fn tswrite(et: u64, origin: u64, object: u64, time: u64, value: i64) -> MSet {
    MSet::new(
        EtId(et),
        SiteId(origin),
        vec![ObjectOp::new(
            ObjectId(object),
            Operation::TimestampedWrite(VersionTs::new(time, ClientId(origin)), Value::Int(value)),
        )],
    )
}

/// `m` stamped by `origin`'s Lamport clock at `counter`, its `fifo`-th
/// MSet.
fn stamped(m: MSet, counter: u64, fifo: u64) -> MSet {
    let ts = LamportTs::new(counter, m.origin);
    m.lamport(ts, SeqNo(fifo))
}

fn mul(et: u64, origin: u64, object: u64, by: i64) -> MSet {
    MSet::new(
        EtId(et),
        SiteId(origin),
        vec![ObjectOp::new(ObjectId(object), Operation::MulBy(by))],
    )
}

/// A method's exercise script: the journal (delivered in order, entry
/// `i` carrying stable id `i + 1`) plus non-journalled control inputs
/// delivered after a given number of journal entries.
struct Workload {
    method: RtMethod,
    journal: Vec<MSet>,
    /// `(after_entry, input)` — delivered once `after_entry` journal
    /// entries have been accepted.
    control: Vec<(usize, NodeEvent)>,
}

/// A peer frame, as a control input.
fn frame(after: usize, f: Frame) -> (usize, NodeEvent) {
    (after, NodeEvent::PeerFrame(f))
}

fn workloads() -> Vec<Workload> {
    vec![
        // ORDUP with holes: pairs delivered out of order so cuts land
        // while the hold-back buffer is non-empty.
        Workload {
            method: RtMethod::Ordup,
            journal: vec![
                incr(2, 0, 1, 1).sequenced(SeqNo(1)),
                incr(1, 0, 1, 10).sequenced(SeqNo(0)),
                incr(4, 2, 2, 100).sequenced(SeqNo(3)),
                incr(3, 2, 2, 1000).sequenced(SeqNo(2)),
                incr(5, 0, 1, 7).sequenced(SeqNo(4)),
            ],
            control: vec![],
        },
        // COMMU with a client-stamped request (exercises the client
        // table in the image) and completions pre- and mid-stream.
        Workload {
            method: RtMethod::Commu,
            journal: vec![
                incr(1, 0, 1, 1),
                incr(2, 2, 1, 2).from_client(ClientId(9), 1),
                incr(3, 0, 2, 3),
                incr(4, 2, 2, 4),
            ],
            control: vec![
                frame(2, Frame::Complete { et: EtId(1) }),
                frame(3, Frame::Complete { et: EtId(2) }),
            ],
        },
        // RITU overwrite: interleaved stale and fresh versions.
        Workload {
            method: RtMethod::Ritu,
            journal: vec![
                tswrite(1, 0, 1, 3, 30),
                tswrite(2, 2, 1, 1, 10),
                tswrite(3, 0, 2, 2, 20),
                tswrite(4, 2, 2, 5, 50),
            ],
            control: vec![],
        },
        // RITU-MV: versions plus a certified horizon advance.
        Workload {
            method: RtMethod::RituMv,
            journal: vec![
                tswrite(1, 0, 1, 1, 10),
                tswrite(2, 2, 1, 2, 20),
                tswrite(3, 0, 2, 3, 30),
                tswrite(4, 2, 1, 4, 40),
            ],
            control: vec![frame(2, Frame::Vtnc { ts: VersionTs::new(1, ClientId(0)) })],
        },
        // COMPE: optimistic applies with one commit and one abort
        // (compensation) decided mid-stream.
        Workload {
            method: RtMethod::Compe,
            journal: vec![
                incr(1, 0, 1, 5),
                incr(2, 2, 1, 50),
                incr(3, 0, 2, 500),
                incr(4, 2, 2, 5000),
            ],
            control: vec![
                frame(2, Frame::Decision { et: EtId(1), commit: true }),
                frame(2, Frame::Decision { et: EtId(2), commit: false }),
            ],
        },
        // ORDUP-L over the three sites' clocks: an MSet past its
        // origin's FIFO gap, a heartbeat that waits for the MSets its
        // origin sent before it, and cuts while stamps are parked
        // waiting for a silent origin.
        Workload {
            method: RtMethod::Ordup,
            journal: vec![
                stamped(incr(2, 2, 1, 2), 2, 0),
                stamped(mul(3, 0, 1, 3), 3, 1),
                stamped(incr(1, 1, 1, 1), 1, 0),
                stamped(incr(4, 0, 1, 10), 1, 0),
                stamped(mul(5, 1, 1, 2), 4, 1),
            ],
            control: vec![(3, beat(0, 2, 5)), (5, beat(2, 1, 6))],
        },
    ]
}

/// A heartbeat from `origin` at `counter`, sent after `sent` MSets.
fn beat(origin: u64, sent: u64, counter: u64) -> NodeEvent {
    NodeEvent::Heartbeat {
        origin: SiteId(origin),
        sent: SeqNo(sent),
        ts: LamportTs::new(counter, SiteId(origin)),
    }
}

/// A fresh node for `w`: an ORDUP-L site when its journal is
/// Lamport-stamped, hearing every site.
fn fresh(w: &Workload) -> NodeCore {
    let state = match w.journal[0].order {
        OrderTag::Lamport { .. } => {
            SiteState::ordup_lamport(SITE, (0..SITES as u64).map(SiteId).collect())
        }
        _ => SiteState::new(w.method, SITE),
    };
    NodeCore::fresh(state, w.method, SITE, SITES, None)
}

/// Drives `core` through the first `upto` journal entries (stable ids
/// `1..=upto`) and every control frame scheduled at or before that
/// point.
fn drive(core: &mut NodeCore, w: &Workload, upto: usize) {
    for (i, m) in w.journal.iter().take(upto).enumerate() {
        core.step(NodeEvent::PeerFrame(Frame::MSet(m.clone())));
        for (after, input) in &w.control {
            if *after == i + 1 {
                core.step(input.clone());
            }
        }
    }
}

fn cut_payload(core: &mut NodeCore, through: Option<u64>) -> esr_runtime::CkptPayload {
    let effects = core.step(NodeEvent::Checkpoint { through });
    let Some(payload) = effects.into_iter().find_map(|e| match e {
        Effect::Checkpoint(p) => Some(*p),
        _ => None,
    }) else {
        panic!("a checkpoint cut always yields a payload")
    };
    payload
}

#[test]
fn restore_plus_suffix_matches_full_replay_at_every_cut() {
    for w in workloads() {
        let n = w.journal.len();
        // The golden reference: a core that saw everything live.
        let mut live = fresh(&w);
        drive(&mut live, &w, n);

        for cut in 0..=n {
            // Cut a checkpoint after `cut` entries (with the control
            // frames scheduled by then), round-trip it through the
            // wire codec, then restore and replay the suffix.
            let mut prefix_core = fresh(&w);
            drive(&mut prefix_core, &w, cut);
            let payload = cut_payload(&mut prefix_core, Some(cut as u64));
            assert_eq!(payload.covered(), cut as u64, "{:?} cut {cut}", w.method);
            let payload = decode_payload(&encode_payload(&payload))
                .unwrap_or_else(|| panic!("{:?} cut {cut}: image must round-trip", w.method));

            let suffix = &w.journal[cut..];
            let (mut restored, _) =
                NodeCore::restore(w.method, SITE, SITES, None, 0, payload.clone(), suffix)
                    .expect("method matches");
            // Control frames past the cut are not journalled; the live
            // reference saw them, so re-deliver (idempotent, like the
            // coordinator's StartView snapshot at rejoin).
            for (after, input) in &w.control {
                if *after > cut {
                    restored.step(input.clone());
                }
            }

            // The same inputs in the same order, taken live: the image
            // the restore must reproduce exactly. (`live` saw each
            // control frame at its point in the journal instead, and
            // COMPE's recovery log records when an abort landed.)
            let mut reference = fresh(&w);
            drive(&mut reference, &w, cut);
            for m in &w.journal[cut..] {
                reference.step(NodeEvent::PeerFrame(Frame::MSet(m.clone())));
            }
            for (after, input) in &w.control {
                if *after > cut {
                    reference.step(input.clone());
                }
            }

            assert_eq!(
                restored.state.snapshot(),
                live.state.snapshot(),
                "{:?} cut {cut}: restored snapshot diverged",
                w.method
            );
            assert_eq!(
                restored.ckpt_payload(None),
                reference.ckpt_payload(None),
                "{:?} cut {cut}: restored image diverged",
                w.method
            );

            // Over-approximated suffix: replay the *whole* journal on
            // top of the image (the catch-up path, covered_through =
            // None). The replica's duplicate guard must absorb the
            // prefix.
            let (mut over, _) = NodeCore::restore(
                w.method,
                SITE,
                SITES,
                None,
                0,
                payload,
                &w.journal,
            )
            .expect("method matches");
            for (after, input) in &w.control {
                if *after > cut {
                    over.step(input.clone());
                }
            }
            assert_eq!(
                over.state.snapshot(),
                live.state.snapshot(),
                "{:?} cut {cut}: over-approximated replay diverged",
                w.method
            );
            assert_eq!(over.ckpt_payload(None), reference.ckpt_payload(None));
        }
    }
}

#[test]
fn restored_client_table_still_dedups() {
    // The COMMU workload journals a client-stamped request before any
    // cut that includes it; the restored node must answer a retry from
    // the table instead of re-applying.
    let w = &workloads()[1];
    assert_eq!(w.method, RtMethod::Commu);
    let mut prefix_core = fresh(w);
    drive(&mut prefix_core, w, 2); // includes (client 9, seq 1) -> et 2
    let payload = cut_payload(&mut prefix_core, Some(2));
    let (restored, _) =
        NodeCore::restore(w.method, SITE, SITES, None, 0, payload, &[]).expect("method matches");
    assert_eq!(restored.cached_et(ClientId(9), 1), Some(EtId(2)));
}

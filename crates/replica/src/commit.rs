//! Tick commit: the write plan of one reactor cycle.
//!
//! A node does not write when it steps. Every journal record and
//! [`Effect::Send`] a step returns is *staged* here, and once per
//! cycle — after every ready connection has been stepped, before any
//! reply or ack of the cycle leaves — [`Staged::plan`] takes what
//! accumulated as one journal append followed by the sends: every
//! journal record, then every send in the order the steps listed them,
//! one run of frames per peer.
//!
//! The order is the contract: journal ≺ every send. The journal is a
//! site's one durable file — its MSets, decisions and views, and the
//! cursor record [`crate::node::Node`] adds to an append when a link's
//! acknowledged cursor passed an MSet the site originated — so a
//! commit's durable writes are one append, and a link is an in-memory
//! FIFO queue that a crash empties.
//! `Applied(m)` certifies a durable apply, a decision is journalled
//! before its forward or broadcast can be lost, and a view before any
//! frame that presumes it. A crash before or inside the append loses
//! every send of the cycle and answers nothing: the peers redeliver,
//! the clients retry, and whatever record prefix the torn append kept
//! is absorbed by the journalled set and the client table. A crash
//! after it loses the sends only. Either way the boot
//! ([`crate::node::Node::boot`]) re-seeds each link with the journal
//! records that originated here and lie above the peer's newest
//! recorded cursor, so a journalled submit reaches every peer, and
//! recovery re-derives the control frames (DESIGN.md §13.1).
//! [`crate::node::Node`] executes the plan against its host — `esrd`'s
//! journal file and links, or the memory host of the simulator and the
//! model checker — and `tests/commit_window.rs` tears one commit after
//! every write prefix, and shows a send put before its record
//! diverging.

use esr_core::ids::SiteId;

use crate::ctrl::{Effect, Record};
use crate::wire::Frame;

/// The journal records and sends of the steps made since the last
/// commit.
#[derive(Debug, Default)]
pub struct Staged {
    journal: Vec<Record>,
    /// Runs of frames to one peer, in step order.
    sends: Vec<(SiteId, Vec<Frame>)>,
}

impl Staged {
    /// Stages one step's journal records and sends and returns the
    /// rest (events, `Checkpoint`), in order, for the caller to execute
    /// at once.
    pub fn stage(&mut self, effects: Vec<Effect>) -> Vec<Effect> {
        effects
            .into_iter()
            .filter_map(|effect| match effect {
                Effect::Record(record) => {
                    self.journal.push(record);
                    None
                }
                Effect::Journal(mset) => {
                    self.journal.push(Record::MSet(mset));
                    None
                }
                Effect::Send { to, frame } => {
                    match self.sends.last_mut() {
                        Some((last, frames)) if *last == to => frames.push(frame),
                        _ => self.sends.push((to, vec![frame])),
                    }
                    None
                }
                now => Some(now),
            })
            .collect()
    }

    /// Frames staged and not yet planned — outbound work a status
    /// report must count, exactly like entries already in a link queue.
    pub fn sends(&self) -> usize {
        self.sends.iter().map(|(_, f)| f.len()).sum()
    }

    /// The writes a commit would make: journal records plus frames.
    pub fn len(&self) -> usize {
        self.journal.len() + self.sends()
    }

    /// True when a commit would write nothing.
    pub fn is_empty(&self) -> bool {
        self.journal.is_empty() && self.sends.is_empty()
    }

    /// Takes everything staged as one commit, in its order: the records
    /// of the journal append, then the sends — runs of frames, each on
    /// the link to one peer.
    pub fn plan(&mut self) -> (Vec<Record>, Vec<(SiteId, Vec<Frame>)>) {
        let staged = std::mem::take(self);
        (staged.journal, staged.sends)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctrl::{NodeCore, NodeEvent};
    use crate::mset::MSet;
    use crate::state::{RtMethod, SiteState};
    use esr_core::ids::{EtId, ObjectId};
    use esr_core::op::{ObjectOp, Operation};

    fn incr(et: u64, origin: u64) -> MSet {
        MSet::new(
            EtId(et),
            SiteId(origin),
            vec![ObjectOp::new(ObjectId(0), Operation::Incr(1))],
        )
    }

    fn follower(method: RtMethod) -> NodeCore {
        let site = SiteId(1);
        NodeCore::fresh(SiteState::new(method, site), method, site, 3, None)
    }

    /// `peer kinds` per run of sends.
    fn shape(sends: &[(SiteId, Vec<Frame>)]) -> Vec<String> {
        sends
            .iter()
            .map(|(to, frames)| {
                let kinds: Vec<&str> = frames
                    .iter()
                    .map(|f| match f {
                        Frame::MSet(_) => "mset",
                        Frame::Applied { .. } => "applied",
                        Frame::ForwardDecision { .. } => "decision",
                        _ => "other",
                    })
                    .collect();
                format!("{} {}", to.raw(), kinds.join(","))
            })
            .collect()
    }

    #[test]
    fn a_cycle_plans_the_journal_then_every_send_in_step_order() {
        let mut core = follower(RtMethod::Commu);
        let mut staged = Staged::default();
        // A peer MSet first (its `Applied` report is staged before the
        // submit's fan-out), then a client submit.
        let now = staged.stage(core.step(NodeEvent::PeerFrame(Frame::MSet(incr(1, 2)))));
        assert!(now.iter().all(|e| matches!(e, Effect::Event(_))));
        staged.stage(core.step(NodeEvent::ClientSubmit(incr(2, 1))));
        assert_eq!(staged.sends(), 4, "two fan-out MSets, two Applied reports");
        let (records, sends) = staged.plan();
        assert_eq!(records.len(), 2);
        assert_eq!(shape(&sends), ["0 applied,mset", "2 mset", "0 applied"]);
        assert!(staged.is_empty(), "a plan is taken once");
        let (records, sends) = staged.plan();
        assert!(records.is_empty() && sends.is_empty());
    }

    #[test]
    fn a_decision_is_a_journal_record_ahead_of_its_forward() {
        let mut core = follower(RtMethod::Compe);
        let mut staged = Staged::default();
        staged.stage(core.step(NodeEvent::ClientDecision {
            et: EtId(4),
            commit: false,
        }));
        let (records, sends) = staged.plan();
        assert_eq!(records, [Record::Decision { et: EtId(4), commit: false }]);
        assert_eq!(shape(&sends), ["0 decision"]);
    }
}

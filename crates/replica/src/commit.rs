//! Tick commit: the write plan of one reactor cycle.
//!
//! A node does not write when it steps. Every journal record and
//! [`Effect::Send`] a step returns is *staged* here, and once per
//! cycle — after every ready connection has been stepped, before any
//! reply or ack of the cycle leaves — [`Staged::plan`] lends what
//! accumulated as one journal append followed by the sends: every
//! journal record, then every send in the order the steps listed them,
//! one run of frames per peer. The host drains those buffers in place,
//! so a cycle stages into the memory the previous one used.
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
//! is absorbed by the replicas' duplicate guards and the client table. A crash
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
/// commit. Its buffers outlive the commit: the host drains them in
/// place ([`crate::node::Host::append_from`],
/// [`crate::node::Host::send_from`]) and the next cycle stages into the
/// same memory.
#[derive(Debug, Default)]
pub struct Staged {
    journal: Vec<Record>,
    /// Runs of frames to one peer, in step order: the first `runs` hold
    /// what is staged, the rest are drained runs kept for their buffers.
    sends: Vec<(SiteId, Vec<Frame>)>,
    runs: usize,
}

impl Staged {
    /// Stages `effect` when it is a journal record or a send; hands any
    /// other effect (an event, a `Checkpoint`) back for the caller to
    /// execute at once.
    pub fn stage(&mut self, effect: Effect) -> Option<Effect> {
        match effect {
            Effect::Record(record) => self.journal.push(record),
            Effect::Journal(mset) => self.journal.push(Record::MSet(mset)),
            Effect::Send { to, frame } => {
                match self.runs.checked_sub(1).map(|last| &mut self.sends[last]) {
                    Some((peer, frames)) if *peer == to => frames.push(frame),
                    _ => {
                        if self.runs == self.sends.len() {
                            self.sends.push((to, Vec::new()));
                        }
                        let (peer, frames) = &mut self.sends[self.runs];
                        *peer = to;
                        frames.push(frame);
                        self.runs += 1;
                    }
                }
            }
            now => return Some(now),
        }
        None
    }

    /// Frames staged and not yet planned — outbound work a status
    /// report must count, exactly like entries already in a link queue.
    pub fn sends(&self) -> usize {
        self.sends[..self.runs].iter().map(|(_, f)| f.len()).sum()
    }

    /// The writes a commit would make: journal records plus frames.
    pub fn len(&self) -> usize {
        self.journal.len() + self.sends()
    }

    /// True when a commit would write nothing.
    pub fn is_empty(&self) -> bool {
        self.journal.is_empty() && self.runs == 0
    }

    /// The journal records staged, in order.
    pub fn records(&self) -> &[Record] {
        &self.journal
    }

    /// Lends everything staged as one commit, in its order: the records
    /// of the journal append, then the sends — runs of frames, each on
    /// the link to one peer — for the host to drain.
    /// [`Staged::clear`] then readies the buffers for the next cycle.
    pub fn plan(&mut self) -> (&mut Vec<Record>, &mut [(SiteId, Vec<Frame>)]) {
        (&mut self.journal, &mut self.sends[..self.runs])
    }

    /// Empties what a commit planned, keeping every buffer.
    pub fn clear(&mut self) {
        self.journal.clear();
        for (_, frames) in &mut self.sends[..self.runs] {
            frames.clear();
        }
        self.runs = 0;
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

    /// Stages one step's effects, returning those executed at once.
    fn stage(staged: &mut Staged, effects: Vec<Effect>) -> Vec<Effect> {
        effects
            .into_iter()
            .filter_map(|e| staged.stage(e))
            .collect()
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
        let now = stage(
            &mut staged,
            core.step(NodeEvent::PeerFrame(Frame::MSet(incr(1, 2)))),
        );
        assert!(!now.is_empty() && now.iter().all(|e| matches!(e, Effect::Event(_))));
        stage(&mut staged, core.step(NodeEvent::ClientSubmit(incr(2, 1))));
        assert_eq!(staged.sends(), 4, "two fan-out MSets, two Applied reports");
        let (records, sends) = staged.plan();
        assert_eq!(records.len(), 2);
        assert_eq!(shape(sends), ["0 applied,mset", "2 mset", "0 applied"]);
        staged.clear();
        assert!(staged.is_empty(), "a plan is written once");
        let (records, sends) = staged.plan();
        assert!(records.is_empty() && sends.is_empty());

        // The next cycle stages into the same buffers, in its own runs.
        stage(&mut staged, core.step(NodeEvent::ClientSubmit(incr(3, 1))));
        assert_eq!(staged.sends(), 3);
        let (records, sends) = staged.plan();
        assert_eq!(records.len(), 1);
        assert_eq!(shape(sends), ["0 mset", "2 mset", "0 applied"]);
    }

    #[test]
    fn a_decision_is_a_journal_record_ahead_of_its_forward() {
        let mut core = follower(RtMethod::Compe);
        let mut staged = Staged::default();
        stage(
            &mut staged,
            core.step(NodeEvent::ClientDecision {
                et: EtId(4),
                commit: false,
            }),
        );
        let (records, sends) = staged.plan();
        let decision = Record::Decision {
            et: EtId(4),
            commit: false,
        };
        assert_eq!(*records, [decision]);
        assert_eq!(shape(sends), ["0 decision"]);
    }
}

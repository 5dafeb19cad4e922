//! Tick commit: the write plan of one reactor cycle.
//!
//! A node does not write when it steps. Every [`Effect::Journal`]
//! and [`Effect::Send`] a step returns is *staged* here, and once per
//! cycle — after every ready connection has been stepped, before any
//! reply or ack of the cycle leaves — [`Staged::plan`] turns what
//! accumulated into at most one write per file:
//!
//! 1. the **fan-out** sends, one [`Write::Link`] per peer: those a step
//!    listed *before* its own `Journal` (`ClientSubmit`'s `Frame::MSet`
//!    to every peer);
//! 2. every journal record, one [`Write::Journal`];
//! 3. all other sends (`Applied`, `Complete`, `Vtnc`, decisions,
//!    view-change frames), one [`Write::Link`] per peer.
//!
//! The order is the contract. Fan-out ≺ journal: the client table is
//! rebuilt from the journal, so a journalled submit whose fan-out was
//! lost would be answered `SubmitOk` from the table on retry and never
//! reach the peers. Journal ≺ every other send: `Applied(m)` certifies
//! a durable apply. Everything ≺ the cycle's acks and replies. A crash
//! before the commit equals frames not yet delivered (nothing was
//! acked, the peers' queues still hold them); a crash inside it leaves
//! a whole-record prefix of this order, since each write is an append
//! of whole records — `tests/commit_window.rs` explores every such
//! prefix, and shows the journal-first order diverging.
//!
//! The type is pure so that test can drive it; [`crate::node::Node`]
//! executes the very same plan against its host: `esrd`'s files, the
//! simulator's memory.

use esr_core::ids::SiteId;

use crate::ctrl::Effect;
use crate::mset::MSet;
use crate::wire::Frame;

/// One append of a commit: whole records, one file.
#[derive(Debug)]
pub enum Write {
    /// Append these MSets to the apply journal.
    Journal(Vec<MSet>),
    /// Enqueue these frames, in order, on the durable link to `to`.
    Link {
        /// Target site.
        to: SiteId,
        /// The frames, oldest first.
        frames: Vec<Frame>,
    },
}

impl Write {
    /// Records in this append — the granularity a torn write keeps.
    pub fn records(&self) -> usize {
        match self {
            Write::Journal(msets) => msets.len(),
            Write::Link { frames, .. } => frames.len(),
        }
    }
}

/// Frames per target link, links in first-use order.
type PerLink = Vec<(SiteId, Vec<Frame>)>;

fn push(links: &mut PerLink, to: SiteId, frame: Frame) {
    match links.iter_mut().find(|(t, _)| *t == to) {
        Some((_, frames)) => frames.push(frame),
        None => links.push((to, vec![frame])),
    }
}

/// The durable effects of the steps made since the last commit.
#[derive(Debug, Default)]
pub struct Staged {
    fanout: PerLink,
    journal: Vec<MSet>,
    sends: PerLink,
}

impl Staged {
    /// Stages one step's `Journal` and `Send` effects and returns the
    /// rest (events, `RecordView`, `Checkpoint`), in order, for the
    /// caller to execute at once.
    pub fn stage(&mut self, effects: Vec<Effect>) -> Vec<Effect> {
        let journal_at = effects
            .iter()
            .position(|e| matches!(e, Effect::Journal(_)));
        effects
            .into_iter()
            .enumerate()
            .filter_map(|(i, effect)| match effect {
                Effect::Journal(mset) => {
                    self.journal.push(mset);
                    None
                }
                Effect::Send { to, frame } => {
                    let fanout = journal_at.is_some_and(|j| i < j);
                    push(if fanout { &mut self.fanout } else { &mut self.sends }, to, frame);
                    None
                }
                now => Some(now),
            })
            .collect()
    }

    /// Link frames staged and not yet planned — outbound work a status
    /// report must count, exactly like entries already in a link queue.
    pub fn sends(&self) -> usize {
        let frames = |links: &PerLink| links.iter().map(|(_, f)| f.len()).sum::<usize>();
        frames(&self.fanout) + frames(&self.sends)
    }

    /// True when a commit would write nothing.
    pub fn is_empty(&self) -> bool {
        self.journal.is_empty() && self.fanout.is_empty() && self.sends.is_empty()
    }

    /// Takes everything staged as the ordered writes of one commit.
    pub fn plan(&mut self) -> Vec<Write> {
        let staged = std::mem::take(self);
        let link = |(to, frames)| Write::Link { to, frames };
        staged
            .fanout
            .into_iter()
            .map(link)
            .chain((!staged.journal.is_empty()).then_some(Write::Journal(staged.journal)))
            .chain(staged.sends.into_iter().map(link))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctrl::{NodeCore, NodeEvent};
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

    fn follower() -> NodeCore {
        let site = SiteId(1);
        NodeCore::fresh(SiteState::new(RtMethod::Commu, site), RtMethod::Commu, site, 3, None)
    }

    /// `(phase, to, frame kind)` per planned write, flattened.
    fn shape(plan: &[Write]) -> Vec<String> {
        plan.iter()
            .map(|w| match w {
                Write::Journal(msets) => format!("journal x{}", msets.len()),
                Write::Link { to, frames } => {
                    let kinds: Vec<&str> = frames
                        .iter()
                        .map(|f| match f {
                            Frame::MSet(_) => "mset",
                            Frame::Applied { .. } => "applied",
                            _ => "other",
                        })
                        .collect();
                    format!("link {} {}", to.raw(), kinds.join(","))
                }
            })
            .collect()
    }

    #[test]
    fn a_cycle_plans_fanout_then_journal_then_reports_one_write_per_file() {
        let mut core = follower();
        let mut staged = Staged::default();
        // A peer MSet first (its `Applied` report is staged before the
        // submit's fan-out), then a client submit.
        let now = staged.stage(core.step(NodeEvent::PeerFrame(Frame::MSet(incr(1, 2)))));
        assert!(now.iter().all(|e| matches!(e, Effect::Event(_))));
        staged.stage(core.step(NodeEvent::ClientSubmit(incr(2, 1))));
        assert_eq!(staged.sends(), 4, "two fan-out MSets, two Applied reports");
        let plan = staged.plan();
        assert_eq!(
            shape(&plan),
            [
                "link 0 mset",
                "link 2 mset",
                "journal x2",
                "link 0 applied,applied",
            ]
        );
        assert_eq!(plan.iter().map(Write::records).sum::<usize>(), 6);
        assert!(staged.is_empty() && staged.plan().is_empty(), "a plan is taken once");
    }

    #[test]
    fn a_send_of_a_step_that_journals_nothing_is_never_fanout() {
        let mut core = follower();
        let mut staged = Staged::default();
        staged.stage(core.step(NodeEvent::ClientSubmit(incr(1, 1))));
        staged.plan();
        // The same ET again, unstamped: already journalled, so the
        // step re-lists its MSets with no `Journal` of its own to
        // precede — they queue behind another step's record.
        staged.stage(core.step(NodeEvent::ClientSubmit(incr(1, 1))));
        staged.stage(core.step(NodeEvent::PeerFrame(Frame::MSet(incr(2, 2)))));
        assert_eq!(
            shape(&staged.plan()),
            ["journal x1", "link 0 mset,applied", "link 2 mset"]
        );
    }
}

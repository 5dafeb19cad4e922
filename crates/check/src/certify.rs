//! Replication-aware trace certification over per-site event-log
//! dumps.
//!
//! A site records its protocol decisions as typed [`Event`]s (the
//! `Effect::Event`s of `esr_runtime::ctrl` plus the daemon's
//! checkpoint-chain notes) — the only observation plane there is; this
//! module replays a set of per-site dumps against the per-method
//! visibility and convergence specs, turning any simulated crash
//! scenario (`SimCluster::events_of`), proc-cluster run
//! (`ProcCluster::trace_of`) or model terminal
//! ([`crate::model::oracles::check_safety`]) into a *checked*
//! execution. The spec style follows Enea et al.'s replication-aware
//! linearizability — per-replica causal histories checked against the
//! method's visibility contract — and Perrin et al.'s update
//! consistency for the cross-site agreement checks.
//!
//! ## Events consumed
//!
//! * `Span` with stage `Apply` / `Replay` — an effective apply of the
//!   record's ET (`version` and `gseq` feed the VTNC and ORDUP rules)
//! * `Span` with stage `Complete` / `Vtnc` / `Decision` — the control
//!   notices as this site learned them
//! * `CkptCut` / `CkptRestore` / `CkptInstall` / `CkptTruncate` — the
//!   checkpoint chain
//! * every other event (the remaining span stages, duplicates,
//!   handshakes, view changes, boot, catch-up, failures) carries no
//!   invariant and is ignored.
//!
//! A dump covers one *incarnation*: the log dies with the process,
//! and a recovered site re-records its journal replays (`Replay`
//! spans) and snapshot-replayed control traffic at boot, so the
//! causal prefix a check needs is present after restarts too.
//!
//! ## Checks
//!
//! Per site (causal, in ring-sequence order):
//! 1. **apply-before-complete** (COMMU/RITU): an ET's completion
//!    notice implies every site applied it — so *this* site must have
//!    an apply for it earlier in its own history.
//! 2. **no double apply** (all): an ET never effectively applies twice
//!    in one incarnation (idempotency-guard violations).
//! 3. **VTNC monotonicity** (RITU-MV): certified horizons never
//!    regress.
//! 4. **VTNC visibility** (RITU-MV): when the horizon reaches `T`,
//!    this site has already applied every version time `1..=T.time` —
//!    the dense prefix `CoordCore`'s `next_time` scan certifies by
//!    (version times are minted densely from 1, and the coordinator
//!    only certifies a time every site reported installed, in order).
//! 5. **ORDUP order**: sequenced applies appear in increasing global
//!    sequence order.
//! 6. **decision conflict** (COMPE): no ET both commits and aborts at
//!    one site.
//! 7. **no duplicate complete**: an ET's completion is announced at
//!    most once per incarnation — a coordinator handoff must absorb
//!    prior completions as evidence, not replay them as fresh events.
//! 8. **ckpt-seq-monotone**: installed snapshot sequence numbers
//!    strictly increase within an incarnation (a regressing chain
//!    would let truncation outrun its own cover).
//! 9. **ckpt-covered-monotone**: the covered frontier never regresses
//!    — among cuts (seeded by the restore base) and among installs,
//!    judged separately per kind, because installs happen on an async
//!    writer thread and may legitimately lag a newer cut's event.
//! 10. **ckpt-restore-first**: a restore event, if present, precedes
//!     every cut/install of its incarnation (you cannot cut a
//!     checkpoint before the state it summarizes exists).
//! 11. **ckpt-truncate-monotone**: journal retirement cuts never move
//!     backwards.
//!
//! Cross-site (only when every dump is loss-free, `dropped == 0`):
//! 12. **applied-set agreement** (non-COMPE): quiesced sites applied
//!     the same ET set.
//! 13. **completed-set agreement** (COMMU): quiesced sites saw the
//!     same completion notices.
//! 14. **outcome agreement** (COMPE): an ET's commit/abort outcome is
//!     consistent across sites.
//!
//! Log overflow (`dropped > 0`) downgrades gracefully: history-prefix
//! checks that would false-positive on an evicted prefix are skipped
//! for that site, and cross-site checks are skipped entirely. An
//! incarnation that booted from a snapshot (a `CkptRestore` event)
//! downgrades the same way: the checkpoint compresses the covered
//! prefix out of the trace, so per-ET apply evidence for it is
//! legitimately absent.

use std::collections::{BTreeMap, BTreeSet};

use esr_core::ids::{EtId, SeqNo, VersionTs};
use esr_replica::span::{Event, SpanStage};
use esr_runtime::spans::RawEvent;
use esr_runtime::state::RtMethod;

/// One site's event-log dump, in ring-sequence (per-site causal)
/// order.
#[derive(Debug, Clone)]
pub struct SiteTrace {
    /// The dumping site.
    pub site: u64,
    /// Events evicted by the bounded log before the dump.
    pub dropped: u64,
    /// The retained events in seq order.
    pub events: Vec<Event>,
}

impl SiteTrace {
    /// Builds a trace from a raw dump (`(seq, micros, event)` tuples),
    /// restoring seq order.
    pub fn from_dump(site: u64, dropped: u64, mut dump: Vec<RawEvent>) -> Self {
        dump.sort_by_key(|e| e.0);
        Self {
            site,
            dropped,
            events: dump.into_iter().map(|(_, _, e)| e).collect(),
        }
    }
}

/// One certification violation.
#[derive(Debug, Clone)]
pub struct CertFinding {
    /// The offending site (`None` for cross-site checks).
    pub site: Option<u64>,
    /// Which spec clause fired.
    pub check: &'static str,
    /// What the certifier saw.
    pub detail: String,
}

impl CertFinding {
    /// What the certifier saw, prefixed by the offending site when the
    /// finding has one.
    pub fn located(&self) -> String {
        match self.site {
            Some(site) => format!("site {site}: {}", self.detail),
            None => self.detail.clone(),
        }
    }
}

/// Per-site digest accumulated while replaying a trace.
#[derive(Debug, Default)]
struct SiteDigest {
    applied: BTreeSet<EtId>,
    completed: BTreeSet<EtId>,
    committed: BTreeSet<EtId>,
    aborted: BTreeSet<EtId>,
}

/// Certifies a set of quiescent-site dumps against `method`'s spec.
/// Returns every violation found (empty = certified).
pub fn certify(method: RtMethod, traces: &[SiteTrace]) -> Vec<CertFinding> {
    let mut findings = Vec::new();
    let mut digests: Vec<SiteDigest> = Vec::new();

    let mut any_restore = false;
    for trace in traces {
        let mut d = SiteDigest::default();
        let mut flag = |check: &'static str, detail: String| {
            findings.push(CertFinding {
                site: Some(trace.site),
                check,
                detail,
            });
        };
        // A snapshot-restored incarnation has no per-ET events for the
        // covered prefix — same downgrade as an overflowed log.
        let restored = trace
            .events
            .iter()
            .any(|e| matches!(e, Event::CkptRestore { .. }));
        any_restore |= restored;
        let lossless = trace.dropped == 0 && !restored;
        // Applied version times above `dense`, the largest `t` with
        // every time in `1..=t` applied at this site.
        let mut sparse: BTreeSet<u64> = BTreeSet::new();
        let mut dense = 0u64;
        let mut vtnc_last: Option<VersionTs> = None;
        let mut last_seq: Option<SeqNo> = None;
        let mut ckpt_seq_last: Option<u64> = None;
        let mut ckpt_covered_last: Option<u64> = None;
        let mut ckpt_install_covered_last: Option<u64> = None;
        let mut ckpt_truncate_last: Option<u64> = None;
        let mut ckpt_chain_started = false;
        for event in &trace.events {
            match *event {
                Event::Span(r) => match (r.stage, r.et) {
                    (SpanStage::Apply | SpanStage::Replay, Some(et)) => {
                        if !d.applied.insert(et) {
                            flag("no-double-apply", format!("{et} effectively applied twice"));
                        }
                        if let Some(v) = r.version {
                            sparse.insert(v.time);
                            while sparse.remove(&(dense + 1)) {
                                dense += 1;
                            }
                        }
                        if let Some(s) = r.gseq {
                            if last_seq.is_some_and(|p| p >= s) {
                                flag(
                                    "ordup-order",
                                    format!("seq {s} applied after {last_seq:?}"),
                                );
                            }
                            last_seq = Some(s);
                        }
                    }
                    (SpanStage::Complete, Some(et)) => {
                        if !d.completed.insert(et) {
                            flag(
                                "no-duplicate-complete",
                                format!("{et} completed twice in one incarnation"),
                            );
                        }
                        if lossless && !d.applied.contains(&et) {
                            flag(
                                "apply-before-complete",
                                format!("completion of {et} arrived before its apply"),
                            );
                        }
                    }
                    (SpanStage::Vtnc, _) => {
                        let Some(t) = r.version else { continue };
                        if vtnc_last.is_some_and(|p| p > t) {
                            flag(
                                "vtnc-monotone",
                                format!("horizon regressed {vtnc_last:?} -> {t}"),
                            );
                        }
                        vtnc_last = Some(t);
                        if lossless && t.time > dense {
                            flag(
                                "vtnc-visibility",
                                format!(
                                    "horizon {t} certified but the version prefix applied \
                                     here is dense only through time {dense} (sparse above: \
                                     {sparse:?})"
                                ),
                            );
                        }
                    }
                    (SpanStage::Decision, Some(et)) => match r.commit {
                        Some(true) => {
                            d.committed.insert(et);
                        }
                        Some(false) => {
                            d.aborted.insert(et);
                        }
                        None => {}
                    },
                    // Submit/enqueue/deliver/held hops and the
                    // coordinator's `*Cert` moments carry no per-site
                    // invariant.
                    _ => {}
                },
                Event::CkptCut { covered } => {
                    ckpt_chain_started = true;
                    if ckpt_covered_last.is_some_and(|p| p > covered) {
                        flag(
                            "ckpt-covered-monotone",
                            format!(
                                "cut covered frontier regressed {ckpt_covered_last:?} -> {covered}"
                            ),
                        );
                    }
                    ckpt_covered_last = Some(covered);
                }
                // Installs happen on the async writer thread, so an
                // install event may lag cuts taken after its own —
                // covered monotonicity is judged install-against-install
                // (seeded by the restore base), never against the cut
                // chain.
                Event::CkptInstall { seq, covered } => {
                    ckpt_chain_started = true;
                    if ckpt_install_covered_last.is_some_and(|p| p > covered) {
                        flag(
                            "ckpt-covered-monotone",
                            format!(
                                "install covered frontier regressed \
                                 {ckpt_install_covered_last:?} -> {covered}"
                            ),
                        );
                    }
                    ckpt_install_covered_last = Some(covered);
                    if ckpt_seq_last.is_some_and(|p| p >= seq) {
                        flag(
                            "ckpt-seq-monotone",
                            format!("snapshot seq {seq} installed after {ckpt_seq_last:?}"),
                        );
                    }
                    ckpt_seq_last = Some(seq);
                }
                Event::CkptRestore { covered, .. } => {
                    if ckpt_chain_started {
                        flag(
                            "ckpt-restore-first",
                            format!(
                                "restore (covered {covered}) after a cut/install \
                                 of the same incarnation"
                            ),
                        );
                    }
                    if ckpt_covered_last.is_some_and(|p| p > covered) {
                        flag(
                            "ckpt-covered-monotone",
                            format!("restore covered {covered} below {ckpt_covered_last:?}"),
                        );
                    }
                    ckpt_covered_last = Some(covered);
                    ckpt_install_covered_last = Some(covered);
                }
                Event::CkptTruncate { through, .. } => {
                    if ckpt_truncate_last.is_some_and(|p| p > through) {
                        flag(
                            "ckpt-truncate-monotone",
                            format!(
                                "truncation cut moved backwards {ckpt_truncate_last:?} -> {through}"
                            ),
                        );
                    }
                    ckpt_truncate_last = Some(through);
                }
                // Duplicates, handshakes, view changes, boot, catch-up
                // and failure notes carry no invariant.
                _ => {}
            }
        }
        if let Some(et) = d.committed.intersection(&d.aborted).next() {
            flag("decision-conflict", format!("{et} both committed and aborted"));
        }
        digests.push(d);
    }

    // Cross-site agreement only when no log lost history (by
    // overflow or by snapshot compression).
    if traces.iter().all(|t| t.dropped == 0) && !any_restore && digests.len() > 1 {
        if method != RtMethod::Compe {
            agree(
                &mut findings,
                traces,
                &digests,
                "applied-set-agreement",
                |d| &d.applied,
            );
        }
        if method == RtMethod::Commu {
            agree(
                &mut findings,
                traces,
                &digests,
                "completed-set-agreement",
                |d| &d.completed,
            );
        }
        if method == RtMethod::Compe {
            let mut outcome: BTreeMap<EtId, bool> = BTreeMap::new();
            for (trace, d) in traces.iter().zip(&digests) {
                for (&et, commit) in d
                    .committed
                    .iter()
                    .map(|et| (et, true))
                    .chain(d.aborted.iter().map(|et| (et, false)))
                {
                    if *outcome.entry(et).or_insert(commit) != commit {
                        findings.push(CertFinding {
                            site: Some(trace.site),
                            check: "outcome-agreement",
                            detail: format!("{et} outcome disagrees across sites"),
                        });
                    }
                }
            }
        }
    }

    findings
}

fn agree(
    findings: &mut Vec<CertFinding>,
    traces: &[SiteTrace],
    digests: &[SiteDigest],
    check: &'static str,
    set: impl Fn(&SiteDigest) -> &BTreeSet<EtId>,
) {
    let first = set(&digests[0]);
    for (trace, d) in traces.iter().zip(digests).skip(1) {
        if set(d) != first {
            findings.push(CertFinding {
                site: Some(trace.site),
                check,
                detail: format!(
                    "site {} set {:?} != site {} set {:?}",
                    trace.site,
                    set(d),
                    traces[0].site,
                    first
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_core::ids::{ClientId, SiteId};
    use esr_replica::span::SpanRec;

    fn span(stage: SpanStage, et: u64) -> SpanRec {
        SpanRec::new(stage, EtId(et))
    }

    fn v(time: u64) -> VersionTs {
        VersionTs::new(time, ClientId(0))
    }

    fn applied(et: u64) -> Event {
        Event::Span(span(SpanStage::Apply, et))
    }

    fn applied_v(et: u64, time: u64) -> Event {
        Event::Span(span(SpanStage::Apply, et).with_version(Some(v(time))))
    }

    fn applied_seq(et: u64, seq: u64) -> Event {
        Event::Span(span(SpanStage::Apply, et).with_gseq(Some(SeqNo(seq))))
    }

    fn replayed(et: u64) -> Event {
        Event::Span(span(SpanStage::Replay, et))
    }

    fn complete(et: u64) -> Event {
        Event::Span(span(SpanStage::Complete, et))
    }

    fn vtnc(time: u64) -> Event {
        Event::Span(SpanRec::vtnc(SpanStage::Vtnc, v(time)))
    }

    fn decision(et: u64, commit: bool) -> Event {
        Event::Span(span(SpanStage::Decision, et).with_commit(commit))
    }

    fn cut(covered: u64) -> Event {
        Event::CkptCut { covered }
    }

    fn restore(covered: u64) -> Event {
        Event::CkptRestore { covered, view: 0 }
    }

    fn install(seq: u64, covered: u64) -> Event {
        Event::CkptInstall { seq, covered }
    }

    fn truncate(through: u64, retired: u64) -> Event {
        Event::CkptTruncate { through, retired }
    }

    fn site(site: u64, events: Vec<Event>) -> SiteTrace {
        SiteTrace { site, dropped: 0, events }
    }

    fn fired(method: RtMethod, traces: &[SiteTrace], check: &str) -> bool {
        certify(method, traces).iter().any(|f| f.check == check)
    }

    #[test]
    fn clean_commu_run_certifies() {
        let traces = vec![
            site(0, vec![applied(1), complete(1)]),
            site(1, vec![applied(1), complete(1)]),
        ];
        assert!(certify(RtMethod::Commu, &traces).is_empty());
    }

    #[test]
    fn complete_before_apply_is_flagged() {
        let traces = vec![site(1, vec![complete(1), applied(1)])];
        assert!(fired(RtMethod::Commu, &traces, "apply-before-complete"));
    }

    #[test]
    fn duplicate_complete_in_one_incarnation_is_flagged() {
        let traces = vec![site(0, vec![applied(1), complete(1), complete(1)])];
        assert!(fired(RtMethod::Commu, &traces, "no-duplicate-complete"));
    }

    #[test]
    fn view_and_client_events_are_ignored() {
        let traces = vec![site(
            0,
            vec![
                Event::ViewInstall {
                    view: 1,
                    coordinator: SiteId(1),
                },
                Event::DuplicateSubmit {
                    client: ClientId(7),
                    seq: 1,
                    et: EtId(1),
                },
                Event::Span(span(SpanStage::Deliver, 1)),
                applied(1),
                Event::DuplicateDelivery { et: EtId(1) },
                Event::Span(span(SpanStage::CompleteCert, 1)),
                complete(1),
            ],
        )];
        assert!(certify(RtMethod::Commu, &traces).is_empty());
    }

    #[test]
    fn vtnc_ahead_of_install_is_flagged() {
        let traces = vec![site(2, vec![vtnc(2), applied_v(1, 2)])];
        assert!(fired(RtMethod::RituMv, &traces, "vtnc-visibility"));
    }

    #[test]
    fn vtnc_over_a_version_gap_is_flagged() {
        // Version 3 is installed, so "some version >= the horizon"
        // holds; the dense prefix stops at 1.
        let traces = vec![site(2, vec![applied_v(1, 1), applied_v(3, 3), vtnc(3)])];
        assert!(fired(RtMethod::RituMv, &traces, "vtnc-visibility"));
    }

    #[test]
    fn vtnc_over_a_dense_prefix_is_clean_in_any_apply_order() {
        let traces = vec![site(
            2,
            vec![applied_v(3, 3), applied_v(1, 1), vtnc(1), applied_v(2, 2), vtnc(3)],
        )];
        assert!(certify(RtMethod::RituMv, &traces).is_empty());
    }

    #[test]
    fn replayed_versions_count_toward_the_dense_prefix() {
        let replayed_v =
            |et, time| Event::Span(span(SpanStage::Replay, et).with_version(Some(v(time))));
        let traces = vec![site(
            2,
            vec![replayed_v(1, 1), replayed_v(2, 2), applied_v(3, 3), vtnc(3)],
        )];
        assert!(certify(RtMethod::RituMv, &traces).is_empty());
    }

    #[test]
    fn lossy_traces_skip_the_dense_prefix_rule() {
        // The covered prefix is legitimately absent from a restored or
        // overflowed trace.
        let restored = site(0, vec![restore(2), applied_v(3, 3), vtnc(3)]);
        let overflowed = SiteTrace {
            site: 1,
            dropped: 2,
            events: vec![applied_v(3, 3), vtnc(3)],
        };
        for trace in [restored, overflowed] {
            assert!(!fired(RtMethod::RituMv, &[trace], "vtnc-visibility"));
        }
    }

    #[test]
    fn vtnc_regression_is_flagged() {
        let traces = vec![site(2, vec![applied_v(1, 2), vtnc(2), vtnc(1)])];
        assert!(fired(RtMethod::RituMv, &traces, "vtnc-monotone"));
    }

    #[test]
    fn replayed_applies_satisfy_prefix_checks() {
        // A restarted incarnation: journal replay events precede the
        // snapshot-replayed completion.
        let traces = vec![site(1, vec![replayed(1), complete(1)])];
        assert!(certify(RtMethod::Commu, &traces).is_empty());
    }

    #[test]
    fn applied_set_divergence_is_flagged() {
        let traces = vec![
            site(0, vec![applied(1)]),
            site(1, vec![applied(1), applied(2)]),
        ];
        assert!(fired(RtMethod::Ritu, &traces, "applied-set-agreement"));
    }

    #[test]
    fn completed_set_divergence_is_flagged() {
        let traces = vec![
            site(0, vec![applied(1), complete(1)]),
            site(1, vec![applied(1)]),
        ];
        assert!(fired(RtMethod::Commu, &traces, "completed-set-agreement"));
    }

    #[test]
    fn double_apply_is_flagged() {
        let traces = vec![site(1, vec![applied(1), applied(1)])];
        assert!(fired(RtMethod::Commu, &traces, "no-double-apply"));
    }

    #[test]
    fn ordup_misorder_is_flagged() {
        let traces = vec![site(1, vec![applied_seq(2, 1), applied_seq(1, 0)])];
        assert!(fired(RtMethod::Ordup, &traces, "ordup-order"));
    }

    #[test]
    fn conflicting_outcomes_are_flagged() {
        let traces = vec![
            site(0, vec![decision(1, true)]),
            site(1, vec![decision(1, false)]),
        ];
        assert!(fired(RtMethod::Compe, &traces, "outcome-agreement"));
    }

    #[test]
    fn commit_and_abort_at_one_site_is_flagged() {
        let traces = vec![site(0, vec![decision(1, true), decision(1, false)])];
        assert!(fired(RtMethod::Compe, &traces, "decision-conflict"));
    }

    #[test]
    fn clean_checkpoint_chain_certifies() {
        let traces = vec![site(
            0,
            vec![
                restore(2),
                replayed(3),
                applied(4),
                cut(4),
                install(3, 4),
                truncate(1, 2),
                cut(4),
                install(4, 4),
                truncate(3, 2),
                Event::CkptCatchUp {
                    seq: 4,
                    covered: 4,
                    from: SiteId(1),
                },
                Event::CkptFailed {
                    seq: 5,
                    detail: "install: disk full".into(),
                },
            ],
        )];
        assert!(certify(RtMethod::Commu, &traces).is_empty());
    }

    #[test]
    fn ckpt_seq_regression_is_flagged() {
        let traces = vec![site(0, vec![install(5, 10), install(5, 11)])];
        assert!(fired(RtMethod::Commu, &traces, "ckpt-seq-monotone"));
    }

    #[test]
    fn ckpt_covered_regression_is_flagged() {
        let traces = vec![site(0, vec![cut(9), cut(4)])];
        assert!(fired(RtMethod::Commu, &traces, "ckpt-covered-monotone"));
    }

    #[test]
    fn async_install_lagging_a_newer_cut_is_clean() {
        // The writer thread installs seq 1 (covered 4) after the byte
        // policy has already traced a newer cut — the legitimate
        // interleaving of an asynchronous install under load.
        let traces = vec![site(
            0,
            vec![cut(4), cut(9), install(1, 4), install(2, 9)],
        )];
        assert!(certify(RtMethod::Commu, &traces).is_empty());
    }

    #[test]
    fn install_covered_regression_is_flagged() {
        let traces = vec![site(0, vec![install(1, 9), install(2, 4)])];
        assert!(fired(RtMethod::Commu, &traces, "ckpt-covered-monotone"));
    }

    #[test]
    fn restore_after_cut_is_flagged() {
        let traces = vec![site(0, vec![cut(3), restore(3)])];
        assert!(fired(RtMethod::Commu, &traces, "ckpt-restore-first"));
    }

    #[test]
    fn backwards_truncation_is_flagged() {
        let traces = vec![site(0, vec![truncate(8, 9), truncate(2, 0)])];
        assert!(fired(RtMethod::Commu, &traces, "ckpt-truncate-monotone"));
    }

    #[test]
    fn restored_incarnations_downgrade_like_overflowed_rings() {
        // Site 0 booted from a snapshot covering et 1: no apply event
        // for it exists, yet its completion (and cross-site applied
        // sets) must not be flagged.
        let traces = vec![
            site(0, vec![restore(1), complete(1)]),
            site(1, vec![applied(1), complete(1)]),
        ];
        assert!(certify(RtMethod::Commu, &traces).is_empty());
    }

    #[test]
    fn dropped_rings_downgrade_prefix_checks() {
        let traces = vec![SiteTrace {
            site: 1,
            dropped: 7,
            events: vec![complete(1)],
        }];
        assert!(certify(RtMethod::Commu, &traces).is_empty());
    }
}

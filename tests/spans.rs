//! esr-trace end-to-end: every ET's lifecycle is reconstructible as one
//! causally ordered cross-site timeline from the daemons' span rings.
//!
//! The scenarios mirror `proc_cluster.rs` (real `esrd` processes on
//! loopback) but the oracle is the *trace plane*: after quiescence,
//! scraping every site's ring for an ET and merging
//! (`esr_runtime::merge_timeline`) must yield a complete lifecycle —
//! submit at the origin, an enqueue per peer, a deliver at every peer,
//! an apply (or journal-replayed `replay`) at every site, and the
//! completion/decision certificates — ordered by happens-before rank,
//! never by wall clocks. The failover scenario is the hard case: the
//! coordinator is `SIGKILL`ed mid-stream, its span ring dies with the
//! process, and the restarted incarnation's journal-replay spans must
//! still stitch into the cluster-wide timeline where the lost apply
//! spans were. `esrctl spans` is exercised as a real subprocess, since
//! the CLI (site discovery, merge, render) is the operator-facing
//! artifact the subsystem exists for.


use esr::core::{EtId, SiteId};
use esr::replica::span::SpanStage;
use esr::runtime::{merge_timeline, ProcCluster, RtMethod, SiteSpan};

mod support;
use support::{esrd, fresh_dir, submit, wait_for_view, N};

fn esrctl() -> &'static str {
    env!("CARGO_BIN_EXE_esrctl")
}

/// The test's own mirror of the happens-before ranks, so the assertion
/// does not trust the implementation's private ordering.
fn rank(stage: SpanStage) -> u8 {
    match stage {
        SpanStage::Submit => 0,
        SpanStage::Enqueue => 1,
        SpanStage::Deliver => 2,
        SpanStage::Held => 3,
        SpanStage::Apply | SpanStage::Replay => 4,
        SpanStage::CompleteCert => 5,
        SpanStage::Complete => 6,
        SpanStage::DecisionCert => 7,
        SpanStage::Decision => 8,
        SpanStage::VtncCert => 9,
        SpanStage::Vtnc => 10,
    }
}

/// Scrapes every site's ring for `et`, merges, and asserts the core
/// lifecycle invariants: a submit + fan-out enqueues at the origin, a
/// deliver at every peer, an apply-or-replay at every site, and
/// rank-monotone (causal) ordering. `lost_ring` names a site whose
/// in-memory ring died with a `SIGKILL`: spans recorded only there
/// before the kill (its submit/enqueue as an origin, its deliver as a
/// peer) are legitimately gone — only its applies come back, as
/// journal-replayed `replay` spans. `aborted` marks a COMPE ET whose
/// abort decision may outrun the MSet to a peer: the late MSet is then
/// suppressed without ever applying (see compe.rs
/// `abort_before_delivery_suppresses_late_mset`), so only the origin's
/// optimistic apply is guaranteed. Returns the timeline for
/// method-specific assertions.
fn complete_timeline(
    c: &ProcCluster,
    et: EtId,
    origin: SiteId,
    lost_ring: Option<SiteId>,
    aborted: bool,
    what: &str,
) -> Vec<SiteSpan> {
    let per_site: Vec<_> = (0..N as u64)
        .map(|s| {
            let (dropped, spans) = c
                .spans_of(SiteId(s), et.raw())
                .unwrap_or_else(|e| panic!("{what}: span scrape of s{s} failed: {e}"));
            assert_eq!(dropped, 0, "{what}: s{s} span ring overflowed");
            (SiteId(s), spans)
        })
        .collect();
    let timeline = merge_timeline(&per_site, et);
    assert!(!timeline.is_empty(), "{what}: {et} left no spans");

    let submits: Vec<_> = timeline
        .iter()
        .filter(|s| s.rec.stage == SpanStage::Submit)
        .collect();
    if lost_ring == Some(origin) {
        assert!(
            submits.is_empty(),
            "{what}: {et} submit span should have died with {origin}'s ring"
        );
    } else {
        assert_eq!(submits.len(), 1, "{what}: {et} must have exactly one submit");
        assert_eq!(submits[0].site, origin, "{what}: {et} submit at the origin");
        assert_eq!(
            timeline[0].rec.stage,
            SpanStage::Submit,
            "{what}: {et} timeline must start at the submit"
        );
        let enqueues: Vec<_> = timeline
            .iter()
            .filter(|s| s.rec.stage == SpanStage::Enqueue)
            .collect();
        assert_eq!(enqueues.len(), N - 1, "{what}: {et} enqueue per peer");
        assert!(
            enqueues.iter().all(|s| s.site == origin),
            "{what}: {et} enqueues happen at the origin"
        );
    }

    for site in (0..N as u64).map(SiteId) {
        if site != origin && lost_ring != Some(site) {
            assert!(
                timeline
                    .iter()
                    .any(|s| s.rec.stage == SpanStage::Deliver && s.site == site),
                "{what}: {et} has no deliver at {site}"
            );
        }
        if !aborted || site == origin {
            assert!(
                timeline.iter().any(|s| {
                    (s.rec.stage == SpanStage::Apply || s.rec.stage == SpanStage::Replay)
                        && s.site == site
                }),
                "{what}: {et} has no apply/replay at {site}"
            );
        }
    }

    // Causal order: the merged timeline never steps backwards in rank.
    for w in timeline.windows(2) {
        assert!(
            rank(w[0].rec.stage) <= rank(w[1].rec.stage),
            "{what}: {et} timeline violates happens-before: {} before {}",
            w[0].rec,
            w[1].rec
        );
    }
    timeline
}

fn has_stage_at_every_site(timeline: &[SiteSpan], stage: SpanStage) -> bool {
    (0..N as u64)
        .map(SiteId)
        .all(|site| timeline.iter().any(|s| s.rec.stage == stage && s.site == site))
}

/// Every ET of a mixed run reconstructs completely, for each of the
/// five methods — including the completion / decision certificates.
#[test]
fn every_et_timeline_is_complete_for_every_method() {
    const UPDATES: u64 = 5;
    for method in [
        RtMethod::Commu,
        RtMethod::Ordup,
        RtMethod::Ritu,
        RtMethod::RituMv,
        RtMethod::Compe,
    ] {
        let dir = fresh_dir(method.name());
        let mut c = ProcCluster::spawn(esrd(), &dir, method, N)
            .unwrap_or_else(|e| panic!("{method:?}: spawn failed: {e}"));
        let ets: Vec<EtId> = (0..UPDATES)
            .map(|i| submit(&c, method, i, &[0, 1, 2]))
            .collect();
        if method == RtMethod::Compe {
            for (i, &et) in ets.iter().enumerate() {
                if i % 2 == 0 {
                    c.commit(et).unwrap_or_else(|e| panic!("commit: {e}"));
                } else {
                    c.abort(et).unwrap_or_else(|e| panic!("abort: {e}"));
                }
            }
        }
        c.quiesce();

        for (i, &et) in ets.iter().enumerate() {
            let what = format!("{method:?}");
            let origin = SiteId(i as u64 % 3);
            let aborted = method == RtMethod::Compe && i % 2 != 0;
            let timeline = complete_timeline(&c, et, origin, None, aborted, &what);
            match method {
                // COMMU and RITU certify per-ET completion; RITU-MV
                // certifies a VTNC horizon instead; ORDUP has no
                // completion plane (the sequencer's total order is the
                // guarantee); COMPE's certificate is the decision.
                RtMethod::Commu | RtMethod::Ritu => {
                    assert!(
                        has_stage_at_every_site(&timeline, SpanStage::Complete),
                        "{what}: {et} completion not observed everywhere"
                    );
                }
                RtMethod::RituMv => {
                    assert!(
                        has_stage_at_every_site(&timeline, SpanStage::Vtnc),
                        "{what}: {et} VTNC horizon not observed everywhere"
                    );
                }
                RtMethod::Compe => {
                    let want_commit = i % 2 == 0;
                    assert!(
                        (0..N as u64).map(SiteId).all(|site| {
                            timeline.iter().any(|s| {
                                s.rec.stage == SpanStage::Decision
                                    && s.site == site
                                    && s.rec.commit == Some(want_commit)
                            })
                        }),
                        "{what}: {et} decision (commit={want_commit}) not observed everywhere"
                    );
                }
                RtMethod::Ordup => {}
            }
        }
        c.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The hard case: `SIGKILL` the coordinator mid-stream. Its span ring
/// dies with the process, but after restart the journal-replay spans
/// (`replay`, rank-equal to `apply`) stitch into every pre-kill ET's
/// timeline — the reconstruction survives losing a site's entire
/// in-memory trace state.
#[test]
fn timelines_stitch_across_coordinator_failover() {
    const PHASE: u64 = 5;
    let method = RtMethod::Commu;
    let dir = fresh_dir("failover");
    let mut c = ProcCluster::spawn(esrd(), &dir, method, N).expect("spawn");

    let before: Vec<EtId> = (0..PHASE).map(|i| submit(&c, method, i, &[0, 1, 2])).collect();
    // Make sure the victim actually applied (and journalled) the
    // pre-kill stream before it dies, so replay has something to say.
    c.quiesce();

    c.kill(SiteId(0));
    wait_for_view(&c, SiteId(1), 1, "failover");
    let after: Vec<EtId> = (PHASE..2 * PHASE)
        .map(|i| submit(&c, method, i, &[1, 2]))
        .collect();

    c.restart(SiteId(0)).expect("restart site 0");
    c.quiesce();
    assert!(c.converged().expect("converged"), "cluster diverged");

    for (i, &et) in before.iter().enumerate() {
        let origin = SiteId(i as u64 % 3);
        let timeline = complete_timeline(&c, et, origin, Some(SiteId(0)), false, "pre-kill");
        // Site 0's ring died with the SIGKILL: its contribution to the
        // pre-kill ETs must be the journal-replayed span.
        assert!(
            timeline
                .iter()
                .any(|s| s.site == SiteId(0) && s.rec.stage == SpanStage::Replay),
            "{et}: restarted coordinator contributed no replay span"
        );
    }
    for (i, &et) in after.iter().enumerate() {
        // ETs submitted while the coordinator was dead originate at the
        // survivors and were delivered to site 0 fresh after its
        // restart — a live apply (and a live deliver span), not a
        // replay, so the post-kill suffix has no ring-loss holes.
        let origin = SiteId([1u64, 2][(PHASE as usize + i) % 2]);
        let timeline = complete_timeline(&c, et, origin, None, false, "post-kill");
        assert!(
            timeline
                .iter()
                .any(|s| s.site == SiteId(0) && s.rec.stage == SpanStage::Apply),
            "{et}: revived site should apply the buffered stream live"
        );
    }
    c.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The operator-facing CLI: `esrctl spans <et>` discovers every site
/// from the cluster directory, merges, and renders the causal timeline
/// plus the critical-path breakdown; `--skeleton` drops every
/// nondeterministic field.
#[test]
fn esrctl_spans_renders_a_causal_timeline() {
    let method = RtMethod::Commu;
    let dir = fresh_dir("esrctl");
    let mut c = ProcCluster::spawn(esrd(), &dir, method, N).expect("spawn");
    let et = submit(&c, method, 0, &[0]);
    c.quiesce();

    let run = |extra: &[&str]| -> String {
        let mut cmd = std::process::Command::new(esrctl());
        cmd.arg("--dir").arg(&dir).arg("spans").arg(et.raw().to_string());
        for a in extra {
            cmd.arg(a);
        }
        let out = cmd.output().expect("run esrctl");
        assert!(
            out.status.success(),
            "esrctl spans failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf8")
    };

    let full = run(&[]);
    for needle in [
        "s0 submit et1",
        "->s1",
        "->s2",
        "s1 deliver et1",
        "s2 deliver et1",
        "s1 apply et1",
        "complete et1",
        "path client queue",
        "path local apply",
    ] {
        assert!(full.contains(needle), "missing {needle:?} in:\n{full}");
    }
    assert!(full.contains("us "), "full render carries relative stamps:\n{full}");

    let skeleton = run(&["--skeleton"]);
    assert!(
        !skeleton.contains("us ") && !skeleton.contains("t0="),
        "skeleton must drop stamps and trace context:\n{skeleton}"
    );
    assert!(skeleton.contains("s0 submit et1"), "{skeleton}");
    // Deterministic: the same ring renders the same skeleton.
    assert_eq!(skeleton, run(&["--skeleton"]));

    c.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

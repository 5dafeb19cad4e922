//! Process-level checkpoint battery: real `esrd` daemons taking
//! consistent snapshots, truncating their journals, recovering from
//! snapshot + suffix replay, and re-seeding a wiped site over the wire.
//!
//! Four scenarios:
//!
//! 1. **Restart from snapshot** — after two on-demand checkpoints (the
//!    second triggers lag-by-one truncation of the first's covered
//!    prefix) and some fresh traffic, a `SIGKILL`ed site must come back
//!    bit-identical while replaying *only* the journal suffix — the
//!    replay counter proves the snapshot actually short-circuited
//!    recovery.
//! 2. **Wiped-site catch-up** — a site that loses *everything* (journal,
//!    snapshots, view, epoch, queues) rejoins by pulling a peer's
//!    newest snapshot through `SnapshotRequest`/`SnapshotChunk`, then
//!    converges on subsequent traffic. Trace-certified.
//! 3. **Byte policy** — with `--ckpt-bytes` set low, sustained traffic
//!    makes the daemons cut checkpoints and truncate on their own.
//! 4. **One answer for replays** — two sites with the same history, one
//!    booting from a snapshot and one from its whole journal, count a
//!    replayed record the same way.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use esr::core::{ObjectId, ObjectOp, Operation, SiteId};
use esr::replica::span::Event;
use esr::runtime::{ProcCluster, RtMethod};
use esr_check::certify::{certify, SiteTrace};

const X: ObjectId = ObjectId(0);
const Y: ObjectId = ObjectId(1);
const N: usize = 3;
const QUIESCE: Duration = Duration::from_secs(60);

fn esrd() -> &'static str {
    env!("CARGO_BIN_EXE_esrd")
}

fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let k = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("esr-ckpt-{}-{tag}-{k}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// COMMU increments from rotating origins: order-free, so the final
/// state is the plain sum regardless of interleaving.
fn submit(c: &ProcCluster, i: u64, origins: &[u64]) {
    let origin = SiteId(origins[i as usize % origins.len()]);
    c.submit_update(
        origin,
        vec![
            ObjectOp::new(X, Operation::Incr(i as i64 + 1)),
            ObjectOp::new(Y, Operation::Incr(1)),
        ],
    )
    .unwrap_or_else(|e| panic!("submit {i} failed: {e}"));
}

/// Parses one series value out of a Prometheus text dump.
fn metric(text: &str, series: &str) -> Option<i64> {
    text.lines()
        .find(|l| l.starts_with(series))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

fn certify_cluster(c: &ProcCluster) {
    let traces: Vec<SiteTrace> = (0..N)
        .map(|s| {
            let (dropped, events) = c
                .trace_of(SiteId(s as u64))
                .unwrap_or_else(|e| panic!("trace of site {s}: {e}"));
            SiteTrace::from_dump(s as u64, dropped, events)
        })
        .collect();
    let findings = certify(RtMethod::Commu, &traces);
    assert!(findings.is_empty(), "trace certification failed:\n{findings:#?}");
}

#[test]
fn restart_recovers_from_snapshot_replaying_only_the_suffix() {
    let dir = fresh_dir("restart");
    let mut c = ProcCluster::spawn(esrd(), &dir, RtMethod::Commu, N).expect("spawn");

    for i in 0..8 {
        submit(&c, i, &[0, 1, 2]);
    }
    c.quiesce_within(QUIESCE).expect("quiesce before checkpoints");

    // First checkpoint covers all 8 updates; the second (same
    // frontier) makes the chain lag-by-one truncate the first's
    // covered prefix.
    let (seq1, covered1) = c.checkpoint_at(SiteId(1)).expect("first checkpoint");
    assert_eq!((seq1, covered1), (1, 8));
    let (seq2, covered2) = c.checkpoint_at(SiteId(1)).expect("second checkpoint");
    assert_eq!((seq2, covered2), (2, 8));

    // Truncation was real and measurable in this incarnation: the
    // first cut's prefix — the whole journal, its 8 MSets and the
    // cursor records among them — is retired.
    let text = c.metrics_of(SiteId(1)).expect("metrics before kill");
    let truncated = metric(&text, "esr_journal_truncated_total{site=\"1\"}");
    assert!(
        truncated.is_some_and(|n| n >= 8)
            && metric(&text, "esr_journal_live_entries{site=\"1\"}") == Some(0),
        "lag-by-one truncation should retire the first cut's prefix:\n{text}"
    );
    // Retain-2: both containers on disk, no more.
    let snaps = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| {
            let n = e.file_name();
            let n = n.to_string_lossy().into_owned();
            n.starts_with("site-1.ckpt-") && n.ends_with(".snap")
        })
        .count();
    assert_eq!(snaps, 2, "retain(2) should keep exactly the newest two");

    // Fresh traffic past the snapshot, then the crash.
    for i in 8..12 {
        submit(&c, i, &[0, 1, 2]);
    }
    c.quiesce_within(QUIESCE).expect("quiesce before kill");
    let before = c.snapshot_of(SiteId(1)).expect("snapshot before kill");
    c.kill(SiteId(1));
    c.restart(SiteId(1)).expect("restart");
    c.quiesce_within(QUIESCE).expect("quiesce after restart");

    assert_eq!(
        c.snapshot_of(SiteId(1)).expect("snapshot after restart"),
        before,
        "snapshot + suffix replay lost acknowledged state"
    );
    assert!(c.converged().expect("converged"));

    // The proof that recovery went through the snapshot: the revived
    // incarnation replayed exactly the 4 post-checkpoint entries, not
    // all 12.
    let text = c.metrics_of(SiteId(1)).expect("metrics after restart");
    assert_eq!(
        metric(&text, "esr_recovery_replays_total{site=\"1\"}"),
        Some(4),
        "recovery should replay only the journal suffix:\n{text}"
    );
    let status = c.status_of(SiteId(1)).expect("status after restart");
    assert_eq!(status.ckpt_seq, 2, "restored chain should resume at seq 2");
    assert_eq!(status.ckpt_covered, 8);

    certify_cluster(&c);
    c.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_replay_counts_as_an_apply_with_and_without_a_snapshot() {
    let dir = fresh_dir("replays");
    let mut c = ProcCluster::spawn(esrd(), &dir, RtMethod::Commu, N).expect("spawn");
    let submit_range = |c: &ProcCluster, range: std::ops::Range<u64>, then: &str| {
        for i in range {
            submit(c, i, &[0, 1, 2]);
        }
        c.quiesce_within(QUIESCE).unwrap_or_else(|e| panic!("quiesce {then}: {e}"));
    };
    submit_range(&c, 0..8, "before the checkpoint");
    // Only site 1 snapshots: its image covers the first 8 updates.
    assert_eq!(c.checkpoint_at(SiteId(1)).expect("checkpoint"), (1, 8));
    submit_range(&c, 8..12, "before the kills");

    // Same history, two boots: site 1 restores the image and replays a
    // 4-record suffix, site 2 replays all 12 records.
    c.kill(SiteId(1));
    c.kill(SiteId(2));
    c.restart(SiteId(1)).expect("restart site 1");
    c.restart(SiteId(2)).expect("restart site 2");
    c.quiesce_within(QUIESCE).expect("quiesce after the restarts");
    submit_range(&c, 12..15, "after live traffic");
    assert!(c.converged().expect("converged"));

    for (site, replays) in [(1u64, 4i64), (2, 12)] {
        let text = c.metrics_of(SiteId(site)).expect("metrics after restart");
        assert_eq!(
            metric(&text, &format!("esr_recovery_replays_total{{site=\"{site}\"}}")),
            Some(replays),
            "site {site} replayed the wrong number of records:\n{text}"
        );
        // A replayed record the image does not cover is this
        // incarnation's apply of it, whichever boot ran; the 8 records
        // site 1's image covers were put there by the image, not by a
        // delivery. The 3 live updates count once each on top.
        let labels = format!("{{method=\"commu\",site=\"{site}\"}}");
        assert_eq!(
            metric(&text, &format!("esr_msets_applied_total{labels}")),
            Some(replays + 3),
            "site {site}: applied != image-uncovered replays + live applies:\n{text}"
        );
    }

    certify_cluster(&c);
    c.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wiped_site_rejoins_via_snapshot_catch_up() {
    let dir = fresh_dir("wipe");
    // Policy armed (catch-up is gated on it) but with an interval high
    // enough that only the explicit checkpoints below ever cut.
    let mut c = ProcCluster::spawn_with_ckpt(esrd(), &dir, RtMethod::Commu, N, Some(1 << 20))
        .expect("spawn");

    for i in 0..8 {
        submit(&c, i, &[0, 1, 2]);
    }
    c.quiesce_within(QUIESCE).expect("quiesce before checkpoints");
    // Every site snapshots, so whichever peer answers first can serve
    // a full-coverage image.
    for s in 0..N {
        let (_, covered) = c.checkpoint_at(SiteId(s as u64)).expect("checkpoint");
        assert_eq!(covered, 8, "site {s} checkpoint must cover all traffic");
    }

    let before = c.snapshot_of(SiteId(1)).expect("snapshot before wipe");
    c.kill(SiteId(1));
    c.wipe_site(SiteId(1));
    c.restart(SiteId(1)).expect("restart after wipe");
    c.quiesce_within(QUIESCE).expect("quiesce after rejoin");

    assert_eq!(
        c.snapshot_of(SiteId(1)).expect("snapshot after rejoin"),
        before,
        "catch-up lost checkpointed state"
    );
    assert!(c.converged().expect("converged after rejoin"));

    // The rejoin really went through the wire catch-up + restore path.
    let (_, events) = c.trace_of(SiteId(1)).expect("trace of rejoined site");
    assert!(
        events.iter().any(|(_, _, e)| matches!(e, Event::CkptCatchUp { .. })),
        "rejoined site should record a catch-up event: {events:?}"
    );
    assert!(
        events.iter().any(|(_, _, e)| matches!(e, Event::CkptRestore { .. })),
        "rejoined site should restore from the fetched snapshot"
    );
    let status = c.status_of(SiteId(1)).expect("status after rejoin");
    assert!(status.ckpt_seq >= 1, "rejoined site should hold a snapshot");

    // The rejoined replica keeps up with new traffic.
    for i in 8..12 {
        submit(&c, i, &[0, 1, 2]);
    }
    c.quiesce_within(QUIESCE).expect("quiesce after new traffic");
    assert!(c.converged().expect("converged after new traffic"));

    certify_cluster(&c);
    c.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn byte_policy_cuts_and_truncates_on_its_own() {
    let dir = fresh_dir("policy");
    let mut c = ProcCluster::spawn_with_ckpt(esrd(), &dir, RtMethod::Commu, N, Some(512))
        .expect("spawn");

    for i in 0..32 {
        submit(&c, i, &[0, 1, 2]);
    }
    c.quiesce_within(QUIESCE).expect("quiesce");

    // The writer thread installs asynchronously; poll briefly for the
    // chain to land.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let text = c.metrics_of(SiteId(0)).expect("metrics");
        let cuts = metric(&text, "esr_checkpoint_total{site=\"0\"}").unwrap_or(0);
        let truncated = metric(&text, "esr_journal_truncated_total{site=\"0\"}").unwrap_or(0);
        if cuts >= 2 && truncated >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "byte policy never cut+truncated: cuts={cuts} truncated={truncated}\n{text}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    let status = c.status_of(SiteId(0)).expect("status");
    assert!(status.ckpt_seq >= 2, "policy should have installed a chain");
    assert!(c.converged().expect("converged"));

    certify_cluster(&c);
    c.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

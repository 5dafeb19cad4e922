//! Multi-process integration: real `esrd` daemons on loopback TCP.
//!
//! Each scenario spawns a 3-site cluster of OS processes, streams
//! updates through the client plane, `SIGKILL`s one site mid-stream,
//! keeps submitting while it is dead (the survivors' link queues buffer
//! everything), restarts it, and then requires the full
//! ESR guarantee: at quiescence all replicas are identical and equal to
//! what a fault-free single-site run produces. This is the same oracle
//! as the simulator's crash scenarios (`tests/adversarial.rs`) — real
//! files, sockets and `kill -9` are the only things that changed, and
//! that is the point.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

use esr::core::{EtId, ObjectId, ObjectOp, Operation, SiteId, Value};
use esr::runtime::ctrl::Record;
use esr::runtime::recovery::ApplyJournal;
use esr::runtime::{ProcCluster, RtMethod};
use esr_check::certify::{certify, SiteTrace};

const X: ObjectId = ObjectId(0);
const Y: ObjectId = ObjectId(1);
const N: usize = 3;
const PHASE: u64 = 8; // updates submitted before and after the kill
const QUIESCE: Duration = Duration::from_secs(60);

fn esrd() -> &'static str {
    env!("CARGO_BIN_EXE_esrd")
}

/// A unique private directory for one cluster (addr files, epochs,
/// journals, snapshots).
fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let k = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("esr-proc-{}-{tag}-{k}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Submits update `i`, originating it at one of `origins` (phase 2
/// passes only the living sites — a killed daemon cannot accept
/// submissions, unlike the simulator, where a submit waits for the
/// site). Ops are chosen per method so the final state is independent
/// of delivery order.
fn submit(c: &ProcCluster, method: RtMethod, i: u64, origins: &[u64]) -> EtId {
    let origin = SiteId(origins[i as usize % origins.len()]);
    let result = match method {
        RtMethod::Ordup => {
            if i % 3 == 2 {
                c.submit_update(origin, vec![ObjectOp::new(X, Operation::MulBy(2))])
            } else {
                c.submit_update(
                    origin,
                    vec![
                        ObjectOp::new(X, Operation::Incr(i as i64 + 1)),
                        ObjectOp::new(Y, Operation::Incr(1)),
                    ],
                )
            }
        }
        RtMethod::Commu | RtMethod::Compe => c.submit_update(
            origin,
            vec![
                ObjectOp::new(X, Operation::Incr(i as i64 + 1)),
                ObjectOp::new(Y, Operation::Incr(1)),
            ],
        ),
        RtMethod::Ritu | RtMethod::RituMv => c.submit_blind_write(origin, X, Value::Int(i as i64)),
    };
    result.unwrap_or_else(|e| panic!("{method:?}: submit {i} failed: {e}"))
}

/// What a fault-free, single-site execution of the scenario yields.
fn expected_final(method: RtMethod) -> BTreeMap<ObjectId, Value> {
    let mut x = 0i64;
    let mut y = 0i64;
    match method {
        RtMethod::Ordup => {
            for i in 0..2 * PHASE {
                if i % 3 == 2 {
                    x *= 2;
                } else {
                    x += i as i64 + 1;
                    y += 1;
                }
            }
        }
        RtMethod::Commu => {
            for i in 0..2 * PHASE {
                x += i as i64 + 1;
                y += 1;
            }
        }
        RtMethod::Compe => {
            // Odd submissions abort and are compensated away.
            for i in (0..2 * PHASE).step_by(2) {
                x += i as i64 + 1;
                y += 1;
            }
        }
        RtMethod::Ritu | RtMethod::RituMv => {
            // LWW: the last-stamped write wins everywhere.
            let mut m = BTreeMap::new();
            m.insert(X, Value::Int(2 * PHASE as i64 - 1));
            return m;
        }
    }
    let mut m = BTreeMap::new();
    m.insert(X, Value::Int(x));
    m.insert(Y, Value::Int(y));
    m
}

/// Dumps every site's EventRing and runs the replication-aware trace
/// certifier over the quiesced cluster: the per-method visibility and
/// convergence specs must hold on the *live* run's own evidence, not
/// just on the final snapshots.
fn certify_cluster(c: &ProcCluster, method: RtMethod, n: usize) {
    let traces: Vec<SiteTrace> = (0..n)
        .map(|s| {
            let (dropped, events) = c
                .trace_of(SiteId(s as u64))
                .unwrap_or_else(|e| panic!("{method:?}: trace of site {s}: {e}"));
            SiteTrace::from_dump(s as u64, dropped, events)
        })
        .collect();
    let findings = certify(method, &traces);
    assert!(
        findings.is_empty(),
        "{method:?}: trace certification failed:\n{findings:#?}"
    );
}

/// The registry equals the fold of the dump: a site's delivery
/// counters as a `metrics` scrape shows them, recomputed from the lines
/// of the same site's `trace` dump (the events' `Display` text, as
/// `esrctl trace` prints it). Only meaningful for a ring that has
/// dropped nothing, and once the site has gone quiet.
fn assert_counters_match_trace(what: &str, site_labels: &str, metrics: &str, trace: &str) {
    let count = |pred: &dyn Fn(&str) -> bool| trace.lines().filter(|l| pred(l)).count() as u64;
    let deliver = count(&|l| l.contains("\tspan\tdeliver "));
    let apply = count(&|l| l.contains("\tspan\tapply "));
    let replay = count(&|l| l.contains("\tspan\treplay "));
    let duplicate = count(&|l| l.contains("\tapply\tet ") && l.ends_with(" duplicate"));
    let read = |series: &str| -> u64 {
        let prefix = format!("{series}{site_labels} ");
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(&prefix))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{what}: no {series} in the scrape:\n{metrics}"))
    };
    assert!(apply + replay > 0, "{what}: the dump shows no apply:\n{trace}");
    assert_eq!(read("esr_msets_delivered_total"), deliver + replay, "{what}: delivered\n{trace}");
    assert_eq!(read("esr_msets_applied_total"), apply + replay, "{what}: applied\n{trace}");
    assert_eq!(read("esr_redelivered_total"), duplicate, "{what}: redelivered\n{trace}");
}

/// The full scenario: phase 1, `SIGKILL` site 1, phase 2 through the
/// survivors, restart, COMPE decisions, quiesce, converge, compare.
fn assert_proc_scenario(method: RtMethod, tag: &str) {
    let dir = fresh_dir(tag);
    let mut c = ProcCluster::spawn(esrd(), &dir, method, N)
        .unwrap_or_else(|e| panic!("{method:?}: spawn failed: {e}"));
    let mut ets = Vec::new();
    for i in 0..PHASE {
        ets.push(submit(&c, method, i, &[0, 1, 2]));
    }
    c.kill(SiteId(1));
    for i in PHASE..2 * PHASE {
        ets.push(submit(&c, method, i, &[0, 2]));
    }
    c.restart(SiteId(1))
        .unwrap_or_else(|e| panic!("{method:?}: restart failed: {e}"));
    if method == RtMethod::Compe {
        // Commit even submissions, abort odd ones. Decisions issued
        // while site 1 was down reach it anyway: the coordinator's
        // broadcast sits in its link queue until the revived daemon
        // acks it.
        for (i, et) in ets.iter().enumerate() {
            let r = if i % 2 == 0 { c.commit(*et) } else { c.abort(*et) };
            r.unwrap_or_else(|e| panic!("{method:?}: decision {i} failed: {e}"));
        }
    }
    c.quiesce_within(QUIESCE)
        .unwrap_or_else(|e| panic!("{method:?}: {e}"));
    assert!(
        c.converged().unwrap_or_else(|e| panic!("{method:?}: {e}")),
        "{method:?}: replicas diverged"
    );
    let expected = expected_final(method);
    for i in 0..N {
        let snap = c
            .snapshot_of(SiteId(i as u64))
            .unwrap_or_else(|e| panic!("{method:?}: snapshot {i}: {e}"));
        assert_eq!(snap, expected, "{method:?}: site {i} final state wrong");
    }
    // The kill was real: the revived site runs in a fresh epoch, and
    // every site holds a full journal of all updates — and site 0, the
    // coordinator every decision was issued at, a record of each.
    let status = c.status_of(SiteId(1)).expect("status of revived site");
    assert_eq!(status.epoch, 2, "{method:?}: restart did not bump the epoch");
    for i in 0..N {
        let text = c
            .metrics_of(SiteId(i as u64))
            .unwrap_or_else(|e| panic!("{method:?}: metrics {i}: {e}"));
        // The revived site's ring and registry both began at its boot,
        // so its journal replay is in the fold like everyone's applies.
        let (dropped, events) = c.trace_of(SiteId(i as u64)).expect("trace");
        assert_eq!(dropped, 0, "{method:?}: site {i} ring overflowed");
        let trace: Vec<String> = events.iter().map(|(seq, _, e)| format!("{seq}\t{e}")).collect();
        let labels = format!("{{method=\"{}\",site=\"{i}\"}}", method.name());
        assert_counters_match_trace(&format!("{method:?} site {i}"), &labels, &text, &trace.join("\n"));
    }
    certify_cluster(&c, method, N);
    c.shutdown();
    // No checkpoint policy is set here, so nothing is retired: each
    // journal holds every update, the coordinator's every decision too,
    // and besides them only view and cursor records.
    for i in 0..N {
        let path = dir.join(format!("site-{i}.journal"));
        let records = ApplyJournal::open(path).and_then(|j| j.records());
        let records = records.unwrap_or_else(|e| panic!("{method:?}: journal {i}: {e}"));
        let count = |kind: fn(&Record) -> bool| records.iter().filter(|(_, r)| kind(r)).count();
        let decisions = if method == RtMethod::Compe && i == 0 { 2 * PHASE } else { 0 };
        let msets = count(|r| matches!(r, Record::MSet(_)));
        let decided = count(|r| matches!(r, Record::Decision { .. }));
        let expected = (2 * PHASE as usize, decisions as usize);
        assert_eq!((msets, decided), expected, "{method:?}: site {i}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ordup_survives_kill9_and_restart() {
    assert_proc_scenario(RtMethod::Ordup, "ordup");
}

#[test]
fn commu_survives_kill9_and_restart() {
    assert_proc_scenario(RtMethod::Commu, "commu");
}

#[test]
fn ritu_survives_kill9_and_restart() {
    assert_proc_scenario(RtMethod::Ritu, "ritu");
}

#[test]
fn ritu_mv_survives_kill9_and_restart() {
    assert_proc_scenario(RtMethod::RituMv, "ritu-mv");
}

#[test]
fn compe_survives_kill9_and_restart() {
    assert_proc_scenario(RtMethod::Compe, "compe");
}

#[test]
fn journal_replay_alone_restores_acknowledged_state() {
    // Quiesce first so nothing is in flight, then SIGKILL and restart:
    // the revived daemon has only its journal to rebuild from (the
    // peers' queues are empty), and must come back bit-identical.
    let dir = fresh_dir("journal");
    let mut c = ProcCluster::spawn(esrd(), &dir, RtMethod::Commu, N).expect("spawn");
    for i in 0..PHASE {
        submit(&c, RtMethod::Commu, i, &[0, 1, 2]);
    }
    c.quiesce_within(QUIESCE).expect("quiesce before kill");
    let before = c.snapshot_of(SiteId(1)).expect("snapshot before kill");
    c.kill(SiteId(1));
    c.restart(SiteId(1)).expect("restart");
    c.quiesce_within(QUIESCE).expect("quiesce after restart");
    assert_eq!(
        c.snapshot_of(SiteId(1)).expect("snapshot after restart"),
        before,
        "journal replay lost acknowledged state"
    );
    assert!(c.converged().expect("converged"));
    certify_cluster(&c, RtMethod::Commu, N);
    c.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_restart_writes_no_link_file_and_leaves_the_journal_as_it_was() {
    // The journal is a site's one log: a restart re-announces its
    // applies over in-memory links, so three restarts of a follower
    // append nothing, and no link queue file ever appears.
    let dir = fresh_dir("one-log");
    let mut c = ProcCluster::spawn(esrd(), &dir, RtMethod::Commu, N).expect("spawn");
    for i in 0..PHASE {
        submit(&c, RtMethod::Commu, i, &[0, 1, 2]);
    }
    c.quiesce_within(QUIESCE).expect("quiesce before the restarts");
    let journal = dir.join("site-1.journal");
    let size = || std::fs::metadata(&journal).expect("the follower's journal").len();
    for round in 1..=3 {
        let before = size();
        c.kill(SiteId(1));
        c.restart(SiteId(1)).expect("restart");
        c.quiesce_within(QUIESCE).expect("quiesce after a restart");
        assert_eq!(size(), before, "restart {round} grew the journal");
    }
    let links: Vec<String> = std::fs::read_dir(&dir)
        .expect("cluster dir")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("link-") && name.ends_with(".queue"))
        .collect();
    assert!(links.is_empty(), "link queue files: {links:?}");
    assert!(c.converged().expect("converged"));
    certify_cluster(&c, RtMethod::Commu, N);
    c.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_panicking_daemon_exits_and_recovers_from_its_journal() {
    // The second increment overflows at its origin: the apply error
    // panics the reactor thread before anything of that step is staged.
    // A daemon whose reactor is gone must not linger (bound listener,
    // parked main, clients blocked for good): the process ends, which
    // a restart — journal replay — recovers from like from a SIGKILL.
    let dir = fresh_dir("panic");
    let mut c = ProcCluster::spawn(esrd(), &dir, RtMethod::Commu, N).expect("spawn");
    let overflow = || c.submit_update(SiteId(0), vec![ObjectOp::new(X, Operation::Incr(i64::MAX))]);
    overflow().expect("the first increment fits");
    overflow().expect_err("the second one ends the daemon before it answers");
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while !c.has_exited(SiteId(0)) {
        assert!(
            std::time::Instant::now() < deadline,
            "a daemon whose reactor panicked must exit"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    c.restart(SiteId(0)).expect("restart");
    c.quiesce_within(QUIESCE).expect("quiesce after restart");
    assert!(c.converged().expect("converged"));
    let expected = BTreeMap::from([(X, Value::Int(i64::MAX))]);
    assert_eq!(c.snapshot_of(SiteId(0)).expect("snapshot"), expected);
    certify_cluster(&c, RtMethod::Commu, N);
    c.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quiesce_timeout_reports_per_site_queue_depths() {
    // A killed, never-restarted site wedges the quiesce: the survivors'
    // queues to it cannot drain. The error says where the work sits.
    let dir = fresh_dir("timeout");
    let mut c = ProcCluster::spawn(esrd(), &dir, RtMethod::Commu, N).expect("spawn");
    submit(&c, RtMethod::Commu, 0, &[0]);
    c.kill(SiteId(2));
    submit(&c, RtMethod::Commu, 1, &[0]);
    let asked = std::time::Instant::now();
    let err = c
        .quiesce_within(Duration::from_millis(300))
        .expect_err("a cluster with a dead site cannot quiesce");
    // The deadline is honoured: no probe of the dead site may wait out
    // the connect timeout (10 s) past it.
    let took = asked.elapsed();
    assert!(took < Duration::from_secs(3), "a 300 ms deadline took {took:?}");
    assert!(err.waited < Duration::from_secs(3), "reported wait {:?}", err.waited);
    assert_eq!(err.site_queues.len(), N, "one queue-depth slot per site");
    assert!(err.site_queues[0].is_some() && err.site_queues[1].is_some());
    assert_eq!(err.site_queues[2], None, "the dead site cannot be reached");
    let msg = err.to_string();
    assert!(
        msg.contains("per-site queue depths") && msg.contains("site 2: unreachable"),
        "timeout error must carry the queue depths: {msg}"
    );
    c.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn esrctl_submits_and_traces_a_live_daemon() {
    // The CLI end of the acceptance criteria: drive a 2-site cluster
    // purely through the esrctl binary — submit at site 0, watch the
    // update propagate to site 1, and read its applies and journal
    // count back.
    let esrctl = env!("CARGO_BIN_EXE_esrctl");
    let dir = fresh_dir("esrctl");
    let mut c = ProcCluster::spawn(esrd(), &dir, RtMethod::Commu, 2).expect("spawn");
    let ctl = |args: &[&str]| -> String {
        let out = Command::new(esrctl)
            .arg("--dir")
            .arg(&dir)
            .args(args)
            .output()
            .expect("run esrctl");
        assert!(
            out.status.success(),
            "esrctl {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    assert_eq!(
        ctl(&["--site", "0", "submit", "--et", "1", "7", "incr", "5"]).trim(),
        "submitted et=1"
    );
    assert_eq!(
        ctl(&["--site", "0", "submit", "--et", "2", "7", "incr", "3"]).trim(),
        "submitted et=2"
    );
    c.quiesce_within(QUIESCE).expect("quiesce");
    let snapshot = ctl(&["--site", "1", "snapshot"]);
    assert_eq!(snapshot.trim(), "7\tInt(8)");
    let trace = ctl(&["--site", "1", "trace"]);
    assert!(
        trace.contains("apply et1") && trace.contains("apply et2"),
        "unexpected trace output:\n{trace}"
    );
    // Two MSet records and no cursor record: site 1 originated nothing.
    let metrics = ctl(&["--site", "1", "metrics"]);
    assert!(
        metrics.contains("esr_journal_live_entries{site=\"1\"} 2\n"),
        "unexpected metrics output:\n{metrics}"
    );
    let query = ctl(&["--site", "1", "query", "7"]);
    assert!(query.contains("admitted=true"), "query rejected:\n{query}");
    c.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn esrctl_metrics_scrapes_live_series_from_every_site() {
    // Observability acceptance: a live 3-site RITU-MV cluster must
    // answer `esrctl metrics` at every site with the per-site MSet,
    // epsilon, VTNC-lag, and link queue-depth series, and `esrctl
    // trace` must show the structured event ring.
    let esrctl = env!("CARGO_BIN_EXE_esrctl");
    let dir = fresh_dir("metrics");
    let mut c = ProcCluster::spawn(esrd(), &dir, RtMethod::RituMv, N).expect("spawn");
    for i in 0..6u64 {
        c.submit_blind_write(SiteId(i % N as u64), X, Value::Int(i as i64))
            .expect("submit");
    }
    c.quiesce_within(QUIESCE).expect("quiesce");
    for s in 0..N {
        // A bounded query so the epsilon gauges reflect a real admission.
        let out = c
            .client(SiteId(s as u64))
            .expect("client")
            .query(&[X], 1_000)
            .expect("query");
        assert!(out.admitted);
    }

    let ctl = |args: &[&str]| -> String {
        let out = Command::new(esrctl)
            .arg("--dir")
            .arg(&dir)
            .args(args)
            .output()
            .expect("run esrctl");
        assert!(
            out.status.success(),
            "esrctl {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    for s in 0..N {
        let site = s.to_string();
        let text = ctl(&["--site", &site, "metrics"]);
        let site_labels = format!("{{method=\"ritu-mv\",site=\"{site}\"}}");
        for series in [
            "esr_msets_delivered_total",
            "esr_msets_applied_total",
            "esr_query_epsilon_charged",
            "esr_query_epsilon_limit",
            "esr_vtnc_time",
            "esr_vtnc_lag",
        ] {
            assert!(
                text.contains(&format!("{series}{site_labels}")),
                "site {s}: metrics scrape is missing {series}:\n{text}"
            );
        }
        assert!(
            text.contains(&format!("esr_msets_applied_total{site_labels} 6")),
            "site {s} must report all 6 applies:\n{text}"
        );
        assert!(
            text.contains(&format!("esr_vtnc_lag{site_labels} 0")),
            "site {s} VTNC lag must be 0 at quiescence:\n{text}"
        );
        assert!(
            text.contains(&format!("esr_query_epsilon_limit{site_labels} 1000")),
            "site {s} must report the admitted query's limit:\n{text}"
        );
        // One outbound link per peer, with its durable-queue gauges.
        for peer in 0..N {
            if peer == s {
                continue;
            }
            assert!(
                text.contains(&format!(
                    "esr_link_queue_depth{{link=\"{s}->{peer}\"}}"
                )),
                "site {s}: no queue-depth series for link to {peer}:\n{text}"
            );
        }
        assert!(
            text.contains("esr_recovery_replays_total"),
            "site {s}: recovery replay counter missing:\n{text}"
        );
        assert!(
            text.contains("esr_apply_latency_micros_count")
                && text.contains("esr_rpc_latency_micros_count"),
            "site {s}: latency histograms missing:\n{text}"
        );

        let trace = ctl(&["--site", &site, "trace"]);
        assert!(
            trace.contains("boot") && trace.contains("apply"),
            "site {s}: trace ring missing boot/apply events:\n{trace}"
        );
        assert_counters_match_trace(&format!("esrctl site {s}"), &site_labels, &text, &trace);
    }
    certify_cluster(&c, RtMethod::RituMv, N);
    c.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

//! Recovery cost: full-journal replay vs snapshot + suffix.
//!
//! Builds a write-ahead journal of N accepted MSets (default one
//! million), then boots the same site state both ways and times them:
//!
//!  * **full** — open the journal and `NodeCore::recover` over every
//!    live record, the only option before checkpoints existed;
//!  * **snapshot** — cut a checkpoint covering all but a small tail,
//!    install it, retire the covered prefix (the journal file shrinks
//!    via compaction — the truncation half of the claim), then boot by
//!    `NodeCore::restore` + replay of the remaining suffix.
//!
//! Both boots include their real I/O (journal open, snapshot load and
//! CRC check, codec work), and the restored core is checked
//! bit-identical to the fully replayed one before any number is
//! reported. Each timed boot runs in a fresh process, as a restarted
//! site's does: timed in this one, a boot would reuse heap pages that
//! the build and the other boot had already faulted in, and its time
//! would depend on how much they had allocated and freed. The JSON
//! records the replay times, the speedup, and the journal size
//! before/after truncation.
//!
//! Usage: `recovery_replay [--entries N] [--tail N] [--test] [--json [PATH]]`
//!   --entries N  journal records to build (default 1_000_000)
//!   --tail N     records left uncovered past the cut (default 10_000)
//!   --test       tiny run (5_000 entries, 500 tail), for CI smoke
//!   --json PATH  output path (default BENCH_ckpt.json in cwd)
//!
//! `recovery_replay --boot full|snapshot DIR` times one boot of the
//! site in `DIR` and prints the seconds: the child the run spawns.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use esr_core::ids::{EtId, ObjectId, SiteId};
use esr_core::op::{ObjectOp, Operation};
use esr_replica::mset::MSet;
use esr_runtime::ctrl::{Effect, NodeCore, NodeEvent};
use esr_runtime::recovery::ApplyJournal;
use esr_runtime::state::{RtMethod, SiteState};
use esr_runtime::{decode_payload, encode_payload};
use esr_storage::snapshot;

const SITE: SiteId = SiteId(1);
const SITES: usize = 3;
const METHOD: RtMethod = RtMethod::Commu;
/// Spread the increments over a plausible working set.
const OBJECTS: u64 = 64;

fn mset(i: u64) -> MSet {
    MSet::new(
        EtId(i + 1),
        SiteId(i % SITES as u64),
        vec![ObjectOp::new(
            ObjectId(i % OBJECTS),
            Operation::Incr((i % 7) as i64 + 1),
        )],
    )
}

/// Full replay: open the journal and recover over every record.
fn recover_full(dir: &Path) -> NodeCore {
    let journal = ApplyJournal::open(dir.join("site-1.journal")).expect("reopen journal");
    let (core, _) = NodeCore::recover(
        SiteState::new(METHOD, SITE),
        METHOD,
        SITE,
        SITES,
        None,
        0,
        journal.replay(),
    );
    core
}

/// Checkpointed boot: load and verify the snapshot, replay the journal
/// suffix past its cut. Returns the core and the records replayed.
fn restore_snapshot(dir: &Path) -> (NodeCore, u64) {
    let (_, raw) = snapshot::load_newest(dir, "site-1")
        .expect("load snapshot")
        .expect("snapshot present");
    let restored_payload = decode_payload(&raw).expect("image decodes");
    let cut = restored_payload.covered_through.expect("cut id present");
    let journal = ApplyJournal::open(dir.join("site-1.journal")).expect("reopen journal");
    let suffix: Vec<MSet> = journal
        .replay_entries()
        .expect("journal decodes")
        .into_iter()
        .filter(|(id, _)| *id > cut)
        .map(|(_, m)| m)
        .collect();
    let replayed = suffix.len() as u64;
    let (core, _) = NodeCore::restore(METHOD, SITE, SITES, None, 0, restored_payload, &suffix)
        .expect("method matches");
    (core, replayed)
}

/// Times one boot of the site in `dir` in a fresh process.
fn timed_boot(kind: &str, dir: &Path) -> f64 {
    let exe = std::env::current_exe().expect("own path");
    let out = Command::new(exe)
        .args(["--boot", kind])
        .arg(dir)
        .output()
        .expect("spawn boot");
    assert!(out.status.success(), "{kind} boot failed");
    let secs = String::from_utf8_lossy(&out.stdout).trim().parse();
    secs.expect("boot prints its seconds")
}

fn main() {
    let mut entries: u64 = 1_000_000;
    let mut tail: u64 = 10_000;
    let mut json_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--boot" => {
                let kind = args.next().expect("--boot full|snapshot DIR");
                let dir = PathBuf::from(args.next().expect("--boot full|snapshot DIR"));
                let t = Instant::now();
                let _core = match kind.as_str() {
                    "full" => recover_full(&dir),
                    "snapshot" => restore_snapshot(&dir).0,
                    other => panic!("unknown boot {other}"),
                };
                // Timed up to the booted core; freeing it is not a boot.
                println!("{}", t.elapsed().as_secs_f64());
                return;
            }
            "--entries" => entries = args.next().and_then(|v| v.parse().ok()).expect("--entries N"),
            "--tail" => tail = args.next().and_then(|v| v.parse().ok()).expect("--tail N"),
            "--test" => {
                entries = 5_000;
                tail = 500;
            }
            "--json" => {
                json_path = Some(PathBuf::from(
                    args.next().unwrap_or_else(|| "BENCH_ckpt.json".into()),
                ));
            }
            other => panic!("unknown arg {other}"),
        }
    }
    assert!(tail < entries, "--tail must be smaller than --entries");

    let dir = std::env::temp_dir().join(format!("esr-recovery-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let journal_path = dir.join("site-1.journal");

    // Build the journal: the write-ahead log a long-lived site would
    // hold after `entries` accepted updates and no checkpoints.
    eprintln!("journalling {entries} records...");
    let t = Instant::now();
    let mut journal = ApplyJournal::open(&journal_path).expect("open journal");
    for i in 0..entries {
        journal.record(&mset(i));
    }
    drop(journal);
    let build_secs = t.elapsed().as_secs_f64();
    let journal_bytes_before = std::fs::metadata(&journal_path).expect("stat").len();
    eprintln!(
        "journalled {entries} records in {build_secs:.2}s ({} MB)",
        journal_bytes_before / (1024 * 1024)
    );

    // Baseline: full replay from record zero.
    let full_secs = timed_boot("full", &dir);
    let full_core = recover_full(&dir);
    eprintln!("full replay: {full_secs:.3}s");

    // Cut a checkpoint covering everything but the tail, from a core
    // that has seen exactly the covered prefix (ids are 0-based, so
    // the cut id is `entries - tail - 1`).
    let cut_id = entries - tail - 1;
    let journal = ApplyJournal::open(&journal_path).expect("reopen for cut");
    let prefix: Vec<MSet> = journal
        .replay_entries()
        .expect("journal decodes")
        .into_iter()
        .filter(|(id, _)| *id <= cut_id)
        .map(|(_, m)| m)
        .collect();
    let (mut prefix_core, _) = NodeCore::recover(
        SiteState::new(METHOD, SITE),
        METHOD,
        SITE,
        SITES,
        None,
        0,
        prefix,
    );
    let payload = prefix_core
        .step(NodeEvent::Checkpoint {
            through: Some(cut_id),
        })
        .into_iter()
        .find_map(|e| match e {
            Effect::Checkpoint(p) => Some(*p),
            _ => None,
        })
        .expect("checkpoint cut yields a payload");
    let image = encode_payload(&payload);
    let snapshot_bytes = image.len() as u64 + snapshot::SNAP_OVERHEAD as u64;
    snapshot::install(&dir, "site-1", 1, &image).expect("install snapshot");

    // Truncate: retire the covered prefix; compaction reclaims it.
    let mut journal = journal;
    let retired = journal.retire_through(cut_id);
    drop(journal);
    let journal_bytes_after = std::fs::metadata(&journal_path).expect("stat").len();
    eprintln!(
        "snapshot {} KB; retired {retired} records, journal {} MB -> {} KB",
        snapshot_bytes / 1024,
        journal_bytes_before / (1024 * 1024),
        journal_bytes_after / 1024
    );

    // Checkpointed boot: load + verify the snapshot, replay the tail.
    let snap_secs = timed_boot("snapshot", &dir);
    let (restored_core, replayed) = restore_snapshot(&dir);
    eprintln!("snapshot boot: {snap_secs:.3}s ({replayed} suffix records)");

    // The whole point: both boots land on the same node image.
    assert!(
        restored_core.ckpt_payload(None) == full_core.ckpt_payload(None),
        "restored image diverged from full replay"
    );
    assert_eq!(replayed, tail, "suffix must be exactly the uncovered tail");

    let speedup = full_secs / snap_secs;
    println!(
        "entries={entries} tail={tail} full={full_secs:.3}s snapshot={snap_secs:.3}s \
         speedup={speedup:.1}x journal {journal_bytes_before}B -> {journal_bytes_after}B"
    );

    if let Some(path) = json_path {
        let json = format!(
            "{{\n  \"bench\": \"recovery_replay\",\n  \"method\": \"commu\",\n  \
             \"entries\": {entries},\n  \"tail\": {tail},\n  \
             \"journal_bytes_before\": {journal_bytes_before},\n  \
             \"journal_bytes_after\": {journal_bytes_after},\n  \
             \"snapshot_bytes\": {snapshot_bytes},\n  \"retired\": {retired},\n  \
             \"full_replay_secs\": {full_secs:.4},\n  \
             \"snapshot_boot_secs\": {snap_secs:.4},\n  \"speedup\": {speedup:.2}\n}}\n"
        );
        std::fs::write(&path, json).expect("write json");
        eprintln!("wrote {}", path.display());
    }

    let _ = std::fs::remove_dir_all(&dir);
}

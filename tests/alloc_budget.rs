//! The allocation budget of an update ET on a live cluster.
//!
//! In the asynchronous methods an update costs each site only local
//! work — apply, journal, queue, forward (§2.2) — so on one CPU the rate
//! is set by what a site spends per MSet, and the allocator was a fifth
//! of it. This binary counts every heap allocation the process makes
//! while three in-process `esrd` sites and one closed-loop client run
//! single-`Incr` COMMU updates, and holds the steady state to a budget:
//! frames are read in place, each link entry is encoded once, and a
//! core step builds one effect list.
//!
//! It is its own test binary because the counter is the process's
//! `#[global_allocator]`. Run it with `--nocapture` to see the figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use esr::core::{EtId, ObjectId, ObjectOp, Operation, SiteId};
use esr::replica::mset::MSet;
use esr::runtime::{Daemon, DaemonConfig, DaemonHandle, RpcClient, RtMethod};

/// Counts every allocation (fresh, zeroed or grown) and its bytes, then
/// defers to the system allocator.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Most heap allocations one update may cost the cluster and its
/// client, quiescence included. Before frames were read in place and
/// encoded once, and before a step built one effect list, this test
/// counted 121–125 per update; with them it counts ≈ 27. The budget is
/// a third of the old count, with room for what varies run to run
/// (heartbeats, status polls).
const BUDGET_PER_UPDATE: u64 = 40;

const SITES: u64 = 3;
const WARM_UP: u64 = 1_000;
const COUNTED: u64 = 4_000;

fn cluster_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("esr-alloc-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One single-`Incr` COMMU update, the shape of esrbench's
/// `commu-update`.
fn incr(et: u64) -> MSet {
    let op = ObjectOp::new(ObjectId(et % 64), Operation::Incr(1));
    MSet::new(EtId(et), SiteId(0), vec![op])
}

/// Waits until every site is settled with nothing left on its links.
fn quiesce(sites: &[DaemonHandle]) {
    let deadline = Instant::now() + Duration::from_secs(60);
    for site in sites {
        let mut client = RpcClient::connect(site.addr()).expect("connect for status");
        loop {
            let status = client.status().expect("status");
            if status.settled && status.outbound_pending == 0 {
                break;
            }
            assert!(Instant::now() < deadline, "the cluster did not quiesce");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

#[test]
fn an_update_costs_the_cluster_at_most_its_allocation_budget() {
    let dir = cluster_dir();
    let sites: Vec<DaemonHandle> = (0..SITES)
        .map(|site| {
            Daemon::start(DaemonConfig {
                site: SiteId(site),
                sites: SITES as usize,
                method: RtMethod::Commu,
                dir: dir.clone(),
                ckpt_bytes: None,
            })
            .expect("start daemon")
        })
        .collect();
    let mut client = RpcClient::connect(sites[0].addr()).expect("connect to site 0");

    for et in 1..=WARM_UP {
        client.submit(incr(et)).expect("warm-up submit");
    }
    quiesce(&sites);

    let allocs = ALLOCS.load(Ordering::Relaxed);
    let bytes = BYTES.load(Ordering::Relaxed);
    for et in WARM_UP + 1..=WARM_UP + COUNTED {
        client.submit(incr(et)).expect("submit");
    }
    quiesce(&sites);
    let per_update = (ALLOCS.load(Ordering::Relaxed) - allocs) as f64 / COUNTED as f64;
    let bytes_per_update = (BYTES.load(Ordering::Relaxed) - bytes) as f64 / COUNTED as f64;

    println!(
        "allocations per update: {per_update:.1} ({bytes_per_update:.0} B), budget {BUDGET_PER_UPDATE}"
    );
    drop(client);
    drop(sites);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        per_update <= BUDGET_PER_UPDATE as f64,
        "an update cost {per_update:.1} allocations, over the budget of {BUDGET_PER_UPDATE}"
    );
}

//! Reactor fan-in and backpressure: the event-driven daemon under
//! hostile client behaviour.
//!
//! Two properties a thread-per-connection daemon cannot offer:
//!
//! * **Flat thread count under fan-in** — hundreds of concurrent
//!   long-lived client connections are multiplexed by ONE reactor
//!   thread; the process thread count stays flat and the
//!   `esr_reactor_connections` gauge proves every socket is live at
//!   once.
//! * **Backpressure instead of unbounded buffering** — a client that
//!   requests far more reply bytes than it reads parks its replies in a
//!   bounded per-connection write buffer; the daemon stops *reading*
//!   that connection when the buffer passes its cap, stays fully
//!   responsive to everyone else, and delivers every reply once the
//!   slow reader finally drains.
//!
//! And two properties of the one thread that owns the daemon: the
//! heartbeat still fires when that thread never idles, and dropping
//! the daemon's handle stops it.

use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use esr::core::ids::{ClientId, VersionTs};
use esr::core::{EtId, ObjectId, ObjectOp, Operation, SiteId, Value};
use esr::net::rpc::{read_frame, unseal, write_envelope, KIND_CLIENT, NO_ENTRY};
use esr::replica::mset::MSet;
use esr::replica::wire::{decode_frame, encode_frame, Frame};
use esr::runtime::{Daemon, DaemonConfig, RpcClient, RtMethod};

/// A unique private cluster directory for one test.
fn cluster_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "esr-reactor-soak-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id(),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// This process's current thread count, from `/proc/self/status`.
fn thread_count() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("Threads:")
                    .and_then(|v| v.trim().parse().ok())
            })
        })
        .expect("read /proc/self/status")
}

/// Connects with retries — a connect burst larger than the listener
/// backlog gets SYNs dropped until the reactor catches up.
fn connect_patiently(addr: SocketAddr) -> RpcClient {
    for _ in 0..100 {
        if let Ok(c) = RpcClient::connect(addr) {
            return c;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("could not connect to daemon at {addr}");
}

const SOAK_CLIENTS: usize = 512;
const WORKERS: usize = 8;

#[test]
fn soak_many_concurrent_clients_on_one_reactor_thread() {
    let daemon = Daemon::start(DaemonConfig {
        site: SiteId(0),
        sites: 1,
        method: RtMethod::Commu,
        dir: cluster_dir("soak"),
        ckpt_bytes: None,
    })
    .expect("start daemon");
    let addr = daemon.addr();
    let threads_before = thread_count();

    // Open every connection and hold all of them open at once.
    let pool = Mutex::new(Vec::with_capacity(SOAK_CLIENTS));
    let cursor = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| loop {
                if cursor.fetch_add(1, Ordering::Relaxed) as usize >= SOAK_CLIENTS {
                    return;
                }
                let c = connect_patiently(addr);
                pool.lock().unwrap().push(Mutex::new(c));
            });
        }
    });
    let clients = pool.into_inner().unwrap();
    assert_eq!(clients.len(), SOAK_CLIENTS);

    // Every client completes a submit round while all sockets stay open.
    let cursor = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed) as usize;
                if i >= SOAK_CLIENTS {
                    return;
                }
                let et = EtId(i as u64);
                let mset = MSet::new(
                    et,
                    SiteId(0),
                    vec![ObjectOp::new(
                        ObjectId(i as u64 % 64),
                        Operation::Incr(1),
                    )],
                );
                let acked = clients[i].lock().unwrap().submit(mset).expect("submit");
                assert_eq!(acked, et);
            });
        }
    });

    // The reactor's own gauge sees every connection live at once.
    let metrics = clients[0]
        .lock()
        .unwrap()
        .metrics()
        .expect("metrics scrape");
    let gauge: u64 = metrics
        .lines()
        .find(|l| l.starts_with("esr_reactor_connections") && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .expect("esr_reactor_connections series");
    assert!(
        gauge >= SOAK_CLIENTS as u64,
        "reactor gauge {gauge} < {SOAK_CLIENTS} live connections"
    );

    // Flat thread count: fan-in cost buffers, not OS threads. The
    // worker threads above have exited; anything near one-per-client
    // would mean the reactor regressed to thread-per-connection.
    let threads_now = thread_count();
    assert!(
        threads_now < threads_before + 20,
        "thread count grew {threads_before} -> {threads_now} under {SOAK_CLIENTS} connections"
    );
}

/// Number of oversized-reply requests the stalled reader sends: enough
/// reply bytes to overrun the write-buffer cap many times over.
const STALLED_REQUESTS: usize = 200;
const PRELOAD_OBJECTS: u64 = 16;
const TEXT_BYTES: usize = 1024;

#[test]
fn slow_reader_is_backpressured_while_daemon_stays_responsive() {
    let daemon = Daemon::start(DaemonConfig {
        site: SiteId(0),
        sites: 1,
        method: RtMethod::Ritu,
        dir: cluster_dir("slow"),
        ckpt_bytes: None,
    })
    .expect("start daemon");
    let addr = daemon.addr();

    // Preload the store so every Snapshot reply is ~16 KiB: 200 of them
    // total ~3 MiB, far past the per-connection write-buffer cap.
    let mut loader = connect_patiently(addr);
    for i in 0..PRELOAD_OBJECTS {
        let mset = MSet::new(
            EtId(i),
            SiteId(0),
            vec![ObjectOp::new(
                ObjectId(i),
                Operation::TimestampedWrite(
                    VersionTs::new(i + 1, ClientId::new(1)),
                    Value::Text("x".repeat(TEXT_BYTES)),
                ),
            )],
        );
        loader.submit(mset).expect("preload submit");
    }
    let snap = loader.snapshot().expect("snapshot");
    assert_eq!(snap.len(), PRELOAD_OBJECTS as usize);

    // The stalled reader: fire a burst of Snapshot requests and read
    // nothing. The daemon can only buffer its replies up to the cap;
    // past that it must stop reading this socket, not grow the buffer.
    let mut stalled = TcpStream::connect(addr).expect("connect stalled client");
    stalled.set_nodelay(true).expect("nodelay");
    stalled.write_all(&[KIND_CLIENT]).expect("kind byte");
    let request = encode_frame(&Frame::Snapshot);
    for _ in 0..STALLED_REQUESTS {
        write_envelope(&mut stalled, NO_ENTRY, &request).expect("send stalled request");
    }
    std::thread::sleep(Duration::from_millis(300));

    // Everyone else is unaffected while the stalled connection is
    // parked: a full sweep of fresh RPCs completes promptly.
    let started = Instant::now();
    let mut probe = connect_patiently(addr);
    for _ in 0..20 {
        probe.status().expect("status during stall");
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "daemon unresponsive behind a stalled reader: {:?}",
        started.elapsed()
    );

    // The slow reader finally drains: every reply arrives, in order,
    // none lost to the backpressure window.
    stalled
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    for i in 0..STALLED_REQUESTS {
        let frame = read_frame(&mut stalled).unwrap_or_else(|e| {
            panic!("reply {i}/{STALLED_REQUESTS} missing after drain: {e}")
        });
        let env = unseal(&frame).expect("unseal reply");
        match decode_frame(env.payload).expect("decode reply") {
            Frame::SnapshotOk { entries } => {
                assert_eq!(entries.len(), PRELOAD_OBJECTS as usize, "reply {i}");
            }
            other => panic!("reply {i}: unexpected frame {other:?}"),
        }
    }
}

/// The value of `series` in a Prometheus text scrape (0 when absent).
fn scraped(metrics: &str, series: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(series))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

#[test]
fn the_heartbeat_fires_on_a_reactor_that_never_idles() {
    // Site 0, the view-0 coordinator, never starts. Site 1 must suspect
    // it after SUSPECT_AFTER silent ticks (≈ 3 s) and start an election
    // while a client keeps its reactor busy with back-to-back submits:
    // every `poll` returns on a request, none on a timeout.
    let daemon = Daemon::start(DaemonConfig {
        site: SiteId(1),
        sites: 2,
        method: RtMethod::Commu,
        dir: cluster_dir("busy"),
        ckpt_bytes: None,
    })
    .expect("start daemon");
    let mut client = connect_patiently(daemon.addr());
    let deadline = Instant::now() + Duration::from_secs(8);
    let mut et = 0;
    loop {
        for _ in 0..100 {
            et += 1;
            let mset = MSet::new(
                EtId(et),
                SiteId(1),
                vec![ObjectOp::new(ObjectId(et % 64), Operation::Incr(1))],
            );
            client.submit(mset).expect("submit");
        }
        let metrics = client.metrics().expect("metrics scrape");
        if scraped(&metrics, "esr_elections_total{site=\"1\"}") >= 1 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "no election after {et} back-to-back submits in 8 s"
        );
    }
}

#[test]
fn a_dropped_daemon_stops_serving() {
    let daemon = Daemon::start(DaemonConfig {
        site: SiteId(0),
        sites: 1,
        method: RtMethod::Commu,
        dir: cluster_dir("dropped"),
        ckpt_bytes: None,
    })
    .expect("start daemon");
    let addr = daemon.addr();
    drop(daemon);
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        match TcpStream::connect_timeout(&addr, Duration::from_millis(300)) {
            Err(e) if e.kind() == ErrorKind::ConnectionRefused => return,
            outcome => assert!(
                Instant::now() < deadline,
                "a dropped daemon still serves {addr} after 1 s: {outcome:?}"
            ),
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

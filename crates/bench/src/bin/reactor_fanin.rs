//! Client fan-in against one event-driven `esrd`.
//!
//! Forks a single-site daemon into a child process and holds N
//! concurrent `RpcClient` connections open against it, at increasing
//! tiers (1k → 10k by default). Every client completes a submit round
//! (one MSet accepted and applied) and a status round while *all*
//! connections stay open, so the daemon really is multiplexing N live
//! sockets, not serving a churn of short-lived ones. (A separate
//! process for the daemon keeps each side under the per-process fd
//! limit at the 10k tier, and makes its thread/RSS numbers its own.)
//!
//! What the tiers demonstrate: with the epoll-driven reactor the daemon
//! runs ONE I/O thread regardless of fan-in — its process thread count
//! stays flat from 1k to 10k clients and memory grows only by the
//! per-connection buffers. A thread-per-connection daemon would need
//! 10k stacks and die well before the top tier. The JSON also records
//! the `esr_reactor_connections` gauge scraped over the wire, proving
//! the reactor sees every connection.
//!
//! Usage: `reactor_fanin [--clients N] [--test] [--json [PATH]]`
//!   --clients N   run a single tier of N clients
//!   --test        single small tier (256), for CI smoke
//!   --json PATH   output path (default BENCH_reactor.json in cwd)

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use esr_core::ids::{EtId, ObjectId, SiteId};
use esr_core::op::{ObjectOp, Operation};
use esr_net::rpc::sys::raise_nofile_limit;
use esr_replica::mset::MSet;
use esr_runtime::daemon::resolve_addr;
use esr_runtime::{Daemon, DaemonConfig, RpcClient, RtMethod};

/// Worker threads driving the blocking clients (the box has few cores;
/// each worker sequentially services many open connections).
const WORKERS: usize = 8;

struct TierResult {
    clients: usize,
    connect_secs: f64,
    submit_secs: f64,
    submit_rps: f64,
    status_secs: f64,
    reactor_connections: u64,
    daemon_threads: u64,
    daemon_rss_kb: u64,
}

/// Reads a numeric field (`VmRSS`, `Threads`) from `/proc/<pid>/status`.
fn proc_status_field(pid: u32, field: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix(field).and_then(|rest| {
                    rest.trim_start_matches(':')
                        .split_whitespace()
                        .next()
                        .and_then(|v| v.parse().ok())
                })
            })
        })
        .unwrap_or(0)
}

/// Pulls one gauge value out of a Prometheus text scrape.
fn scrape_gauge(text: &str, name: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Connects with retries: a connect burst larger than the listener's
/// accept backlog gets SYNs dropped until the reactor drains the queue,
/// so transient timeouts/refusals are expected and retried.
fn connect_patiently(addr: SocketAddr) -> RpcClient {
    let mut last = None;
    for _ in 0..50 {
        match RpcClient::connect(addr) {
            Ok(c) => return c,
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    panic!("connect client: {:?}", last);
}

/// Fans `per_client` work across [`WORKERS`] threads over the shared
/// client pool; each call receives `(client, global_index)`.
fn fan_out(clients: &[Mutex<RpcClient>], per_client: impl Fn(&mut RpcClient, usize) + Sync) {
    let cursor = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed) as usize;
                if i >= clients.len() {
                    return;
                }
                let mut c = clients[i].lock().expect("client lock");
                per_client(&mut c, i);
            });
        }
    });
}

fn run_tier(addr: SocketAddr, daemon_pid: u32, n: usize, et_base: u64) -> TierResult {
    // Connect phase: open all N connections and keep them open.
    let started = Instant::now();
    let pool = Mutex::new(Vec::with_capacity(n));
    let cursor = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| loop {
                if cursor.fetch_add(1, Ordering::Relaxed) as usize >= n {
                    return;
                }
                let c = connect_patiently(addr);
                pool.lock().expect("pool lock").push(Mutex::new(c));
            });
        }
    });
    let clients = pool.into_inner().expect("pool");
    let connect_secs = started.elapsed().as_secs_f64();

    // Submit round: every connection completes one accepted update.
    let started = Instant::now();
    fan_out(&clients, |c, i| {
        let et = EtId(et_base + i as u64);
        let mset = MSet::new(
            et,
            SiteId(0),
            vec![ObjectOp::new(ObjectId(i as u64 % 1024), Operation::Incr(1))],
        );
        let acked = c.submit(mset).expect("submit");
        assert_eq!(acked, et);
    });
    let submit_secs = started.elapsed().as_secs_f64();

    // Status round: a second full RPC sweep over the same open sockets.
    let started = Instant::now();
    fan_out(&clients, |c, _| {
        c.status().expect("status");
    });
    let status_secs = started.elapsed().as_secs_f64();

    // Daemon footprint with every connection still open.
    let metrics = clients[0]
        .lock()
        .expect("client lock")
        .metrics()
        .expect("metrics scrape");
    TierResult {
        clients: n,
        connect_secs,
        submit_secs,
        submit_rps: n as f64 / submit_secs.max(1e-9),
        status_secs,
        reactor_connections: scrape_gauge(&metrics, "esr_reactor_connections"),
        daemon_threads: proc_status_field(daemon_pid, "Threads"),
        daemon_rss_kb: proc_status_field(daemon_pid, "VmRSS"),
    }
}

/// Child mode: host the daemon until the parent kills us.
fn serve(dir: PathBuf) -> ! {
    let _ = raise_nofile_limit(20_000);
    let _daemon = Daemon::start(DaemonConfig {
        site: SiteId(0),
        sites: 1,
        method: RtMethod::Commu,
        dir,
        ckpt_bytes: None,
    })
    .expect("start daemon");
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn main() {
    let mut tiers: Vec<usize> = vec![1024, 4096, 10_000];
    let mut json_path = PathBuf::from("BENCH_reactor.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--serve" => {
                let dir = args.next().expect("--serve DIR");
                serve(PathBuf::from(dir));
            }
            "--test" | "-t" => tiers = vec![256],
            "--clients" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--clients N");
                tiers = vec![n];
            }
            "--json" => {
                if let Some(p) = args.next() {
                    json_path = PathBuf::from(p);
                }
            }
            other => eprintln!("ignoring unknown arg {other:?}"),
        }
    }

    let want = tiers.iter().max().copied().unwrap_or(0) as u64 + 512;
    match raise_nofile_limit(want) {
        Ok(limit) if limit < want => {
            eprintln!("warning: fd limit {limit} < {want}; large tiers may fail");
        }
        Err(e) => eprintln!("warning: could not raise fd limit: {e}"),
        _ => {}
    }

    let dir = std::env::temp_dir().join(format!("esr-fanin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create cluster dir");
    let exe = std::env::current_exe().expect("current exe");
    let mut child = std::process::Command::new(exe)
        .arg("--serve")
        .arg(&dir)
        .spawn()
        .expect("spawn daemon process");

    let deadline = Instant::now() + Duration::from_secs(10);
    let addr = loop {
        if let Some(addr) = resolve_addr(&dir, SiteId(0)) {
            break addr;
        }
        assert!(Instant::now() < deadline, "daemon did not publish an address");
        std::thread::sleep(Duration::from_millis(20));
    };
    let baseline_threads = proc_status_field(child.id(), "Threads");

    let mut results = Vec::new();
    for (t, &n) in tiers.iter().enumerate() {
        let r = run_tier(addr, child.id(), n, (t as u64 + 1) * 1_000_000);
        println!(
            "tier {:>6} clients: connect {:.2}s, submit {:.2}s ({:.0} rps), \
             status {:.2}s, gauge {}, daemon threads {}, daemon rss {} KB",
            r.clients,
            r.connect_secs,
            r.submit_secs,
            r.submit_rps,
            r.status_secs,
            r.reactor_connections,
            r.daemon_threads,
            r.daemon_rss_kb,
        );
        results.push(r);
    }

    let mut out = String::from("{\n  \"bench\": \"reactor_fanin\",\n");
    out.push_str(&format!(
        "  \"daemon_baseline_threads\": {baseline_threads},\n"
    ));
    out.push_str(&format!("  \"workers\": {WORKERS},\n  \"tiers\": [\n"));
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"clients\": {}, \"connect_secs\": {:.3}, \"submit_secs\": {:.3}, \
             \"submit_rps\": {:.0}, \"status_secs\": {:.3}, \"reactor_connections\": {}, \
             \"daemon_threads\": {}, \"daemon_rss_kb\": {}}}{}\n",
            r.clients,
            r.connect_secs,
            r.submit_secs,
            r.submit_rps,
            r.status_secs,
            r.reactor_connections,
            r.daemon_threads,
            r.daemon_rss_kb,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&json_path, out).expect("write json");
    println!("wrote {}", json_path.display());

    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

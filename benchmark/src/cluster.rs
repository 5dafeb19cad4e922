//! The harness: three real `esrd` processes on loopback, and the
//! guarantee that none of them — nor their directory — outlives the
//! benchmark, whether it ends by success, error, panic or SIGINT.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::{Duration, Instant};

use esr_core::ids::{ObjectId, SiteId};
use esr_core::value::Value;
use esr_runtime::daemon::resolve_addr;
use esr_runtime::{RpcClient, RtMethod};

/// Sites per cluster. Site 0 coordinates view 0 and serves client A,
/// site 1 serves client B, site 2 only receives replication.
pub const SITES: usize = 3;

/// How long any single wait (boot, quiescence, recovery) may last
/// before the run is declared failed.
pub const WAIT_LIMIT: Duration = Duration::from_secs(60);

static INTERRUPTED: AtomicBool = AtomicBool::new(false);
static NEXT_DIR: AtomicU32 = AtomicU32::new(0);

extern "C" fn on_signal(_signum: i32) {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

/// Routes SIGINT and SIGTERM to a flag the wait loops poll, so an
/// interrupted run unwinds through [`Cluster`]'s `Drop` instead of
/// orphaning daemons.
pub fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is the C library's; the handler only stores to
    // an atomic, which is async-signal-safe.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// Fails once SIGINT or SIGTERM has been received.
pub fn check_interrupt() -> io::Result<()> {
    if INTERRUPTED.load(Ordering::SeqCst) {
        return Err(io::Error::new(io::ErrorKind::Interrupted, "interrupted"));
    }
    Ok(())
}

/// Sleeps `d` in short slices, failing early on SIGINT.
pub fn pause(d: Duration) -> io::Result<()> {
    let end = Instant::now() + d;
    loop {
        check_interrupt()?;
        let left = end.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Ok(());
        }
        std::thread::sleep(left.min(Duration::from_millis(50)));
    }
}

fn timed_out(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, what)
}

/// A running three-site cluster in a directory of its own.
pub struct Cluster {
    esrd: PathBuf,
    dir: PathBuf,
    method: RtMethod,
    children: Vec<Option<Child>>,
}

impl Cluster {
    /// Spawns the three daemons in a fresh directory under `scratch`
    /// and waits until each answers `status`. Returns the cluster and
    /// that set-up time in seconds.
    pub fn start(esrd: &Path, scratch: &Path, method: RtMethod) -> io::Result<(Self, f64)> {
        let dir = scratch.join(format!(
            "cluster-{}-{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        let mut cluster = Self {
            esrd: esrd.to_path_buf(),
            dir,
            method,
            children: Vec::new(),
        };
        let started = Instant::now();
        for site in 0..SITES {
            let child = cluster.spawn_site(site)?;
            cluster.children.push(Some(child));
        }
        for site in 0..SITES {
            cluster.client(site)?.status()?;
        }
        Ok((cluster, started.elapsed().as_secs_f64()))
    }

    fn spawn_site(&self, site: usize) -> io::Result<Child> {
        let mut cmd = Command::new(&self.esrd);
        cmd.arg("--site")
            .arg(site.to_string())
            .arg("--sites")
            .arg(SITES.to_string())
            .arg("--method")
            .arg(self.method.name())
            .arg("--dir")
            .arg(&self.dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
    }

    /// The OS process id of a live site.
    pub fn pid(&self, site: usize) -> u32 {
        self.children[site]
            .as_ref()
            .map(Child::id)
            .expect("pid() of a killed site")
    }

    /// Connects to `site`, polling five times a millisecond until its
    /// daemon has published an address and accepts
    /// (`RpcClient::connect_dir` polls at 20 ms, too coarse to time a
    /// boot with).
    pub fn client(&self, site: usize) -> io::Result<RpcClient> {
        let deadline = Instant::now() + WAIT_LIMIT;
        loop {
            if let Some(addr) = resolve_addr(&self.dir, SiteId(site as u64)) {
                // A stale address file (daemon just killed) refuses.
                if let Ok(c) = RpcClient::connect(addr) {
                    return Ok(c);
                }
            }
            check_interrupt()?;
            if Instant::now() >= deadline {
                return Err(timed_out(format!("site {site} unreachable")));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// `SIGKILL`s a site: no destructor, no flush.
    pub fn kill(&mut self, site: usize) {
        if let Some(mut child) = self.children[site].take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Respawns a killed site (returns as soon as the process exists).
    pub fn respawn(&mut self, site: usize) -> io::Result<()> {
        assert!(self.children[site].is_none(), "respawn of a live site");
        self.children[site] = Some(self.spawn_site(site)?);
        Ok(())
    }

    /// Waits until every site reports settled protocol state and empty
    /// outbound queues on two consecutive polls, `poll` apart.
    pub fn quiesce(&self, poll: Duration) -> io::Result<()> {
        let mut clients = (0..SITES)
            .map(|s| self.client(s))
            .collect::<io::Result<Vec<_>>>()?;
        let deadline = Instant::now() + WAIT_LIMIT;
        let mut quiet_rounds = 0;
        loop {
            let statuses = clients
                .iter_mut()
                .map(RpcClient::status)
                .collect::<io::Result<Vec<_>>>()?;
            let quiet = statuses
                .iter()
                .all(|s| s.settled && s.outbound_pending == 0);
            quiet_rounds = if quiet { quiet_rounds + 1 } else { 0 };
            if quiet_rounds >= 2 {
                return Ok(());
            }
            check_interrupt()?;
            if Instant::now() >= deadline {
                return Err(timed_out("cluster did not quiesce".into()));
            }
            std::thread::sleep(poll);
        }
    }

    /// The replica snapshot of every site, zero-valued entries dropped
    /// (an object whose updates were all compensated reads as the
    /// untouched default).
    pub fn snapshots(&self) -> io::Result<Vec<BTreeMap<ObjectId, Value>>> {
        (0..SITES)
            .map(|s| {
                let mut snap = self.client(s)?.snapshot()?;
                snap.retain(|_, v| *v != Value::ZERO);
                Ok(snap)
            })
            .collect()
    }

    /// The Prometheus text of every site's metrics registry.
    pub fn metrics(&self) -> io::Result<Vec<String>> {
        (0..SITES).map(|s| self.client(s)?.metrics()).collect()
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for site in 0..self.children.len() {
            self.kill(site);
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

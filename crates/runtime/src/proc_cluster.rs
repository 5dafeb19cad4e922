//! Multi-process cluster harness: N real `esrd` daemons on loopback.
//!
//! [`ProcCluster`] spawns one `esrd` OS process per site (all sharing
//! a cluster directory for discovery, journals, snapshots and link
//! cursors), stamps and submits ETs through the client plane, and
//! offers the convergence oracle every harness uses — quiesce until
//! every site reports settled with drained queues, then compare full
//! replica snapshots. Because the sites are real processes,
//! [`ProcCluster::kill`] is a genuine `SIGKILL`: no destructors, no
//! flushes, exactly the failure model the paper's stable-queue argument
//! is about.
//!
//! Client-side stamping is three atomics shared by every thread that
//! holds the harness: ET ids from 1, the ORDUP sequencer from 0, the
//! RITU version clock handing out 1, 2, 3, … — a single-harness
//! assumption that is an explicit non-goal to lift at this layer
//! (DESIGN.md §11).

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use std::time::{Duration, Instant};

use esr_core::ids::{ClientId, EtId, ObjectId, SeqNo, SiteId, VersionTs};
use esr_core::op::{ObjectOp, Operation};
use esr_core::value::Value;
use esr_replica::mset::MSet;

use crate::client::{DaemonStatus, RpcClient};
use crate::spans::{RawEvent, RawSpan};
use crate::state::RtMethod;

/// How long to wait for a daemon to come up / answer before calling it
/// unreachable.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// A quiesce wait that did not settle before its deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuiesceTimeout {
    /// How long the wait actually lasted.
    pub waited: Duration,
    /// Pending work per site at the deadline: the daemon's outbound
    /// link-queue depth. `None` when the site could not be reached —
    /// usually the site that is wedging the quiesce.
    pub site_queues: Vec<Option<u64>>,
    /// Which site's `status` reported holding the coordinator role at
    /// the deadline. A timeout with no reachable coordinator usually
    /// means the killed coordinator was never restarted and no
    /// surviving site suspected it yet.
    pub coordinator: Option<SiteId>,
}

impl std::fmt::Display for QuiesceTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cluster did not quiesce within {:.1}s (crashed site never restarted, \
             partition outlasting the deadline, or a protocol bug); per-site queue depths: [",
            self.waited.as_secs_f64()
        )?;
        for (i, q) in self.site_queues.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match q {
                Some(d) => write!(f, "site {i}: {d}")?,
                None => write!(f, "site {i}: unreachable")?,
            }
        }
        write!(f, "]; coordinator role held by ")?;
        match self.coordinator {
            Some(s) => write!(f, "site {}", s.raw()),
            None => write!(f, "no reachable site"),
        }
    }
}

impl std::error::Error for QuiesceTimeout {}

/// A running cluster of `esrd` processes.
pub struct ProcCluster {
    esrd: PathBuf,
    dir: PathBuf,
    method: RtMethod,
    n: usize,
    children: Vec<Option<Child>>,
    next_et: AtomicU64,
    sequencer: AtomicU64,
    version_clock: AtomicU64,
    /// ORDUP sequence numbers already handed to a `(client, seq)`
    /// request, so a retried submit reuses its original global
    /// sequence instead of opening a hole in the total order.
    client_seqs: Mutex<BTreeMap<(u64, u64), SeqNo>>,
    /// `--ckpt-bytes` passed to every spawned daemon (`None` = policy
    /// off, the pre-checkpoint layout).
    ckpt_bytes: Option<u64>,
}

impl ProcCluster {
    /// Spawns `n` daemons running `method` under `dir`, using the
    /// `esrd` binary at `esrd` (tests use `env!("CARGO_BIN_EXE_esrd")`).
    /// Blocks until every site answers a status round trip.
    pub fn spawn(
        esrd: impl AsRef<Path>,
        dir: impl AsRef<Path>,
        method: RtMethod,
        n: usize,
    ) -> io::Result<Self> {
        Self::spawn_with_ckpt(esrd, dir, method, n, None)
    }

    /// [`ProcCluster::spawn`] with the daemons' checkpoint byte policy
    /// enabled: every site cuts a snapshot after roughly `ckpt_bytes`
    /// journal bytes and truncates the covered prefix lag-by-one.
    pub fn spawn_with_ckpt(
        esrd: impl AsRef<Path>,
        dir: impl AsRef<Path>,
        method: RtMethod,
        n: usize,
        ckpt_bytes: Option<u64>,
    ) -> io::Result<Self> {
        assert!(n > 0, "a cluster needs at least one site");
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut cluster = Self {
            esrd: esrd.as_ref().to_path_buf(),
            dir,
            method,
            n,
            children: Vec::new(),
            next_et: AtomicU64::new(1),
            sequencer: AtomicU64::new(0),
            version_clock: AtomicU64::new(0),
            client_seqs: Mutex::new(BTreeMap::new()),
            ckpt_bytes,
        };
        for i in 0..n {
            let child = cluster.spawn_site(SiteId(i as u64))?;
            cluster.children.push(Some(child));
        }
        for i in 0..n {
            cluster.status_of(SiteId(i as u64))?;
        }
        Ok(cluster)
    }

    fn spawn_site(&self, site: SiteId) -> io::Result<Child> {
        let mut cmd = Command::new(&self.esrd);
        cmd.arg("--site")
            .arg(site.raw().to_string())
            .arg("--sites")
            .arg(self.n.to_string())
            .arg("--method")
            .arg(self.method.name())
            .arg("--dir")
            .arg(&self.dir);
        if let Some(bytes) = self.ckpt_bytes {
            cmd.arg("--ckpt-bytes").arg(bytes.to_string());
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
    }

    /// Number of sites.
    pub fn sites(&self) -> usize {
        self.n
    }

    /// The method this cluster runs.
    pub fn method(&self) -> RtMethod {
        self.method
    }

    /// The shared cluster directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Opens a fresh client-plane connection to `site`, waiting for the
    /// daemon to be reachable.
    pub fn client(&self, site: SiteId) -> io::Result<RpcClient> {
        RpcClient::connect_dir(&self.dir, site, CONNECT_TIMEOUT)
    }

    fn fresh_et(&self) -> EtId {
        EtId(self.next_et.fetch_add(1, Ordering::Relaxed))
    }

    /// Stamps and submits an update ET at `origin`; the daemon journals
    /// it and fans it out to the peers over the links.
    pub fn submit_update(&self, origin: SiteId, ops: Vec<ObjectOp>) -> io::Result<EtId> {
        let et = self.fresh_et();
        let mset = match self.method {
            RtMethod::Ordup => {
                let seq = SeqNo(self.sequencer.fetch_add(1, Ordering::Relaxed));
                MSet::new(et, origin, ops).sequenced(seq)
            }
            _ => MSet::new(et, origin, ops),
        };
        self.client(origin)?.submit(mset)
    }

    /// [`ProcCluster::submit_update`] carrying a client identity: a
    /// retried submit with the same `(client, seq)` — at the same site
    /// or, after a failover, at any site that journalled the original —
    /// is answered from the daemon's client table with the original ET
    /// instead of being applied again.
    pub fn submit_update_from_client(
        &self,
        origin: SiteId,
        ops: Vec<ObjectOp>,
        client: u64,
        seq: u64,
    ) -> io::Result<EtId> {
        let et = self.fresh_et();
        let mset = match self.method {
            RtMethod::Ordup => {
                let s = *self
                    .client_seqs
                    .lock()
                    .entry((client, seq))
                    .or_insert_with(|| SeqNo(self.sequencer.fetch_add(1, Ordering::Relaxed)));
                MSet::new(et, origin, ops).sequenced(s)
            }
            _ => MSet::new(et, origin, ops),
        }
        .from_client(ClientId(client), seq);
        self.client(origin)?.submit(mset)
    }

    /// Stamps and submits a RITU blind write.
    pub fn submit_blind_write(
        &self,
        origin: SiteId,
        object: ObjectId,
        value: Value,
    ) -> io::Result<EtId> {
        let t = self.version_clock.fetch_add(1, Ordering::Relaxed) + 1;
        let ts = VersionTs::new(t, ClientId(origin.raw()));
        self.submit_update(
            origin,
            vec![ObjectOp::new(object, Operation::TimestampedWrite(ts, value))],
        )
    }

    /// COMPE: issues a commit decision at site 0 (forwarded to
    /// whichever site holds the coordinator role).
    pub fn commit(&self, et: EtId) -> io::Result<()> {
        self.commit_via(SiteId(0), et)
    }

    /// COMPE: issues an abort decision at site 0.
    pub fn abort(&self, et: EtId) -> io::Result<()> {
        self.abort_via(SiteId(0), et)
    }

    /// COMPE: issues a commit decision at a chosen site — the failover
    /// tests decide via a survivor while the old coordinator is dead.
    pub fn commit_via(&self, site: SiteId, et: EtId) -> io::Result<()> {
        self.client(site)?.decide(et, true)
    }

    /// COMPE: issues an abort decision at a chosen site.
    pub fn abort_via(&self, site: SiteId, et: EtId) -> io::Result<()> {
        self.client(site)?.decide(et, false)
    }

    /// `SIGKILL`s a site's daemon process mid-flight — no shutdown
    /// path runs. Its journal, snapshots and (stale) address file stay
    /// on disk, and its link queues die with it; peers keep retrying
    /// until [`ProcCluster::restart`].
    pub fn kill(&mut self, site: SiteId) {
        if let Some(mut child) = self.children[site.raw() as usize].take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Has `site`'s daemon ended by itself (a panic aborts the process)?
    /// Never blocks. An exited child is reaped and forgotten, so the
    /// site can be [`ProcCluster::restart`]ed like a killed one.
    pub fn has_exited(&mut self, site: SiteId) -> bool {
        let slot = &mut self.children[site.raw() as usize];
        if matches!(slot.as_mut().map(Child::try_wait), Some(Ok(Some(_)))) {
            *slot = None;
        }
        slot.is_none()
    }

    /// Destroys a killed site's entire local disk state — journal,
    /// snapshots, epoch and address files. The
    /// peers' links toward the site hold only what it had not
    /// acknowledged, which is exactly the wiped-replacement scenario
    /// snapshot catch-up exists for: the fresh incarnation pulls a
    /// peer's checkpoint instead of hoping the full history is still
    /// queued. Call between [`ProcCluster::kill`] and
    /// [`ProcCluster::restart`].
    pub fn wipe_site(&mut self, site: SiteId) {
        assert!(
            self.children[site.raw() as usize].is_none(),
            "wipe_site() of a live site"
        );
        let i = site.raw();
        for name in [
            format!("site-{i}.journal"),
            format!("site-{i}.epoch"),
            format!("site-{i}.addr"),
        ] {
            let _ = std::fs::remove_file(self.dir.join(name));
        }
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            let snap_prefix = format!("site-{i}.ckpt-");
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.starts_with(&snap_prefix) && name.ends_with(".snap") {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
    }

    /// Triggers an on-demand checkpoint at `site`; returns the newly
    /// installed snapshot's `(seq, covered)`.
    pub fn checkpoint_at(&self, site: SiteId) -> io::Result<(u64, u64)> {
        self.client(site)?.checkpoint()
    }

    /// Respawns a killed site. The new incarnation bumps its epoch,
    /// replays its journal, re-announces its applies, and republishes
    /// its address so peers reconnect.
    pub fn restart(&mut self, site: SiteId) -> io::Result<()> {
        assert!(
            self.children[site.raw() as usize].is_none(),
            "restart() of a live site"
        );
        self.children[site.raw() as usize] = Some(self.spawn_site(site)?);
        self.status_of(site).map(|_| ())
    }

    /// One status round trip against `site` (fresh connection, so this
    /// also doubles as a liveness probe after restarts).
    pub fn status_of(&self, site: SiteId) -> io::Result<DaemonStatus> {
        self.probe(site, CONNECT_TIMEOUT)
    }

    /// One status round trip that gives up on an unreachable site after
    /// `patience` (a single connect attempt when it is zero).
    fn probe(&self, site: SiteId, patience: Duration) -> io::Result<DaemonStatus> {
        RpcClient::connect_dir(&self.dir, site, patience.min(CONNECT_TIMEOUT))?.status()
    }

    /// Blocks until every site reports settled protocol state and
    /// empty outbound queues for two consecutive polls, or the deadline
    /// passes. A poll never waits for an unreachable site longer than
    /// the time that is left, so the call returns within the deadline
    /// plus one probe.
    pub fn quiesce_within(&self, deadline: Duration) -> Result<(), QuiesceTimeout> {
        let start = Instant::now();
        let sites = || (0..self.n as u64).map(SiteId);
        let mut stable_rounds = 0;
        loop {
            let quiet = sites().all(|site| {
                let left = deadline.saturating_sub(start.elapsed());
                matches!(self.probe(site, left), Ok(s) if s.settled && s.outbound_pending == 0)
            });
            stable_rounds = if quiet { stable_rounds + 1 } else { 0 };
            if stable_rounds >= 2 {
                return Ok(());
            }
            let waited = start.elapsed();
            if waited >= deadline {
                // Per-site pending work at the deadline: the daemon's
                // outbound durable-queue depth, or None for a site that
                // no longer answers (the usual wedge) — plus which site
                // reports holding the coordinator role, since a dead
                // never-restarted coordinator is the other usual wedge.
                let mut coordinator = None;
                let site_queues = sites()
                    .map(|site| {
                        let status = self.probe(site, Duration::ZERO).ok();
                        if status.is_some_and(|s| s.coordinator) {
                            coordinator = Some(site);
                        }
                        status.map(|s| s.outbound_pending)
                    })
                    .collect();
                return Err(QuiesceTimeout {
                    waited,
                    site_queues,
                    coordinator,
                });
            }
            std::thread::sleep(Duration::from_millis(40));
        }
    }

    /// Quiesces with the default two-minute deadline, panicking on
    /// timeout (test-harness convenience).
    pub fn quiesce(&self) {
        self.quiesce_within(Duration::from_secs(120))
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// The full replica snapshot at `site`.
    pub fn snapshot_of(&self, site: SiteId) -> io::Result<BTreeMap<ObjectId, Value>> {
        self.client(site)?.snapshot()
    }

    /// Scrapes `site`'s metrics in Prometheus text format.
    pub fn metrics_of(&self, site: SiteId) -> io::Result<String> {
        self.client(site)?.metrics()
    }

    /// Dumps `site`'s event log: `(dropped, events)`.
    pub fn trace_of(&self, site: SiteId) -> io::Result<(u64, Vec<RawEvent>)> {
        self.client(site)?.trace()
    }

    /// Dumps `site`'s lifecycle records for one ET (or all of them via
    /// [`crate::spans::SPAN_QUERY_ALL`]): `(dropped, spans)`.
    pub fn spans_of(
        &self,
        site: SiteId,
        et: u64,
    ) -> io::Result<(u64, Vec<RawSpan>)> {
        self.client(site)?.spans(et)
    }

    /// Do all sites hold identical replica snapshots? (Call after
    /// [`ProcCluster::quiesce`].)
    pub fn converged(&self) -> io::Result<bool> {
        let reference = self.snapshot_of(SiteId(0))?;
        for i in 1..self.n {
            if self.snapshot_of(SiteId(i as u64))? != reference {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Kills every daemon (cluster teardown).
    pub fn shutdown(&mut self) {
        for i in 0..self.n {
            self.kill(SiteId(i as u64));
        }
    }
}

impl Drop for ProcCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

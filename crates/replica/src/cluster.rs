//! The simulated replicated system: the protocol core under a
//! deterministic virtual-time network.
//!
//! `SimCluster` runs one [`Node`] per site — the effect executor `esrd`
//! runs — over a [`MemHost`], as the model checker `esr-model` does.
//! One scheduler event kind carries a
//! [`wire::Frame`](crate::wire::Frame) to a site; the site's node steps
//! on it and commits the step. The journal and the snapshot containers
//! live in the host's memory, events land in its
//! log stamped in virtual time, and the commit's sends leave through
//! its outbox, in the commit plan's order, onto the simulated
//! [`Network`] (latency, loss, duplication, partitions, bandwidth — and
//! therefore *reordering*): one scheduled arrival per planned copy.
//! ORDUP hold-back, completion tracking, VTNC certification, COMPE
//! decision broadcast, elections and checkpoints are the node's; none
//! of them is written here.
//!
//! It is also the repository's one **seeded fault harness**
//! (DESIGN.md §10): [`SimCluster::crash`] drops a site's node between
//! two steps, and [`SimCluster::restart`] boots a new one over the
//! host's durable half exactly as `esrd` boots after a `kill -9` —
//! restore or replay, into the recorded view — then greets every peer
//! with a `Hello`; [`SimCluster::tick`] is one heartbeat interval at
//! every site, and [`SimCluster::checkpoint`] cuts and installs an
//! image. All of it runs under loss, duplication, partitions *and*
//! reordering. What survives a crash is what survives one in `esrd`:
//! the journal — its views and link cursors included — the snapshots,
//! and the senders' queues — an arrival that finds its site down waits
//! for the restart.
//!
//! What stays in the simulator is what a *client* or an *omniscient
//! observer* does:
//!
//! * minting ET ids, the **ORDUP sequencer** (the stamped submit enters
//!   the core at the sequencer site after an origin → sequencer hop),
//!   the RITU **version clock**, and — for distributed ORDUP — the
//!   Lamport **send clocks**, per-origin FIFO numbers and the heartbeats
//!   that stabilize the tail at quiescence;
//! * the seeded COMPE **outcome draw** and the timer that hands the
//!   origin the client decision (the core forwards it to the
//!   coordinator, which broadcasts it);
//! * the **measurement side**: the global lock-counters and deviation
//!   tracker queries are admitted against (DESIGN §7), the serial
//!   oracle, the true-error probe and the run statistics — fed by the
//!   events the cores emit, never feeding a frame or a core input back.
//!
//! Everything travels through the simulated network, so the whole run —
//! replica states, metrics, per-site event logs — is reproducible from
//! the seed.

use std::collections::{BTreeMap, BTreeSet};

use esr_core::divergence::{EpsilonSpec, InconsistencyCounter, LockCounters};
use esr_core::ids::{ClientId, EtId, LamportTs, ObjectId, SeqNo, SiteId, VersionTs};
use esr_core::op::{ObjectOp, Operation};
use esr_core::spatial::{DeviationTracker, SpatialSpec};
use esr_core::value::Value;
use esr_net::topology::{LinkConfig, Topology};
use esr_net::transport::{NetStats, Network};
use esr_net::PartitionSchedule;
use esr_obs::{Counter, Gauge, GaugeFamily, MetricsRegistry};
use esr_sim::clock::LamportClock;
use esr_sim::rng::DetRng;
use esr_sim::sched::Scheduler;
use esr_sim::time::{Duration, VirtualTime};
use esr_storage::store::ObjectStore;

use crate::ctrl::{coordinator_of, NodeEvent};
use crate::mset::{MSet, OrderTag};
use crate::node::{MemHost, Node, NodeConfig, NodeInstruments};
use crate::site::QueryOutcome;
use crate::span::{publish_readings, Event, SpanStage};
use crate::state::{RtMethod, SiteState};
use crate::wire::Frame;

/// COMPE: time between origination and the client's commit/abort
/// decision reaching the origin.
const DECISION_DELAY: Duration = Duration::from_millis(20);

/// Which replica control method a cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// ORDUP with a centralized sequencer.
    OrdupSeq,
    /// ORDUP with distributed Lamport ordering.
    OrdupLamport,
    /// Commutative operations.
    Commu,
    /// RITU, last-writer-wins overwrite mode.
    RituOverwrite,
    /// RITU, multiversion mode with VTNC.
    RituMv,
    /// Compensation-based backward control.
    Compe,
}

impl Method {
    /// All methods, for sweeps.
    pub const ALL: [Method; 6] = [
        Method::OrdupSeq,
        Method::OrdupLamport,
        Method::Commu,
        Method::RituOverwrite,
        Method::RituMv,
        Method::Compe,
    ];

    /// Display name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            Method::OrdupSeq => "ORDUP",
            Method::OrdupLamport => "ORDUP-L",
            Method::Commu => "COMMU",
            Method::RituOverwrite => "RITU",
            Method::RituMv => "RITU-MV",
            Method::Compe => "COMPE",
        }
    }

    /// The core method this configuration runs on. Both ORDUP variants
    /// ride [`RtMethod::Ordup`]: they differ in the site state machine
    /// and in who stamps the order, not in the control plane.
    pub fn rt(self) -> RtMethod {
        match self {
            Method::OrdupSeq | Method::OrdupLamport => RtMethod::Ordup,
            Method::Commu => RtMethod::Commu,
            Method::RituOverwrite => RtMethod::Ritu,
            Method::RituMv => RtMethod::RituMv,
            Method::Compe => RtMethod::Compe,
        }
    }
}

/// The one simulation event: `frame` arrives at `to`. A sender equal to
/// the receiver marks the site's client plane (`Submit`, `Decision`);
/// any other sender is a peer link — a frame on a link's queue is lost
/// if its sender crashed after sending it.
#[derive(Debug, Clone)]
struct Arrival {
    from: SiteId,
    to: SiteId,
    frame: Frame,
    /// The sender's boot epoch when it sent the frame.
    epoch: u64,
    /// The frame's entry on the sender's link, which its arrival
    /// acknowledges (`None` for a `Hello`, which no link queue holds).
    entry: Option<u64>,
}

/// Configuration of a simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Replica control method.
    pub method: Method,
    /// Number of sites (each holds one replica of every object).
    pub sites: usize,
    /// Default link configuration for the full mesh.
    pub link: LinkConfig,
    /// Partition schedule.
    pub partitions: PartitionSchedule,
    /// RNG seed: same seed, same run.
    pub seed: u64,
    /// COMPE: probability that a submitted update globally aborts.
    pub abort_prob: f64,
}

impl ClusterConfig {
    /// A sensible default: 4 sites, LAN links, no partitions.
    pub fn new(method: Method) -> Self {
        Self {
            method,
            sites: 4,
            link: LinkConfig::default(),
            partitions: PartitionSchedule::none(),
            seed: 0xE5B,
            abort_prob: 0.0,
        }
    }

    /// Sets the number of sites.
    pub fn with_sites(mut self, n: usize) -> Self {
        self.sites = n;
        self
    }

    /// Sets the default link.
    pub fn with_link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Sets the partition schedule.
    pub fn with_partitions(mut self, p: PartitionSchedule) -> Self {
        self.partitions = p;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the COMPE abort probability.
    pub fn with_abort_prob(mut self, p: f64) -> Self {
        self.abort_prob = p;
        self
    }
}

/// What the observer remembers about one submitted update.
#[derive(Debug, Clone)]
struct Submission {
    ops: Vec<ObjectOp>,
    origin: SiteId,
    submitted_at: VirtualTime,
    /// COMPE: the global outcome (drawn at submit; `false` while a
    /// pending update awaits [`SimCluster::resolve`]).
    commit: bool,
    /// RITU: the version this update writes (max over its ops).
    version: Option<VersionTs>,
    /// ORDUP-seq: the assigned global sequence number.
    seq: Option<SeqNo>,
    /// COMPE: sites that have recorded the decision (a set: a
    /// restarted site records it a second time).
    decided: BTreeSet<SiteId>,
}

/// Aggregate statistics of a run.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Updates submitted.
    pub updates: u64,
    /// Queries served (admitted).
    pub queries_served: u64,
    /// Query attempts rejected for budget reasons (a retried query
    /// counts once per rejected attempt).
    pub queries_rejected: u64,
    /// Total inconsistency charged to queries.
    pub total_charged: u64,
    /// COMPE: aborts decided.
    pub aborts: u64,
    /// COMPE: compensations taken via the commutative fast path.
    pub fast_compensations: u64,
    /// COMPE: compensations requiring suffix rollback.
    pub suffix_rollbacks: u64,
    /// COMPE: operations undone across all rollbacks.
    pub ops_undone: u64,
    /// COMPE: operations replayed across all rollbacks.
    pub ops_replayed: u64,
    /// Completion latencies (submit → the coordinator certifying that
    /// every replica applied), for the methods whose completion the core
    /// certifies per ET (COMMU, RITU).
    pub completion_latencies: Vec<Duration>,
    /// Arrivals that found their site down and waited for its restart
    /// — what the senders' stable queues had to re-send.
    pub redelivered: u64,
}

/// A query's result, as observed by the experiment driver.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// Values read, in read-set order.
    pub values: Vec<Value>,
    /// Inconsistency charged.
    pub charged: u64,
    /// Virtual time at which the query was finally served.
    pub served_at: VirtualTime,
    /// How many rejected attempts preceded success.
    pub retries: u64,
}

/// Result of a spatially-bounded query ([`SimCluster::try_query_spatial`]).
#[derive(Debug, Clone)]
pub struct SpatialQueryOutcome {
    /// Values read (empty when not admitted).
    pub values: Vec<Value>,
    /// Whether the spatial criterion admitted the query.
    pub admitted: bool,
    /// Worst-case pending value deviation over the read set at query
    /// time — for an admitted `MaxValueDeviation` query, an upper bound
    /// on how far the answer can be from the converged truth (for
    /// bounded-deviation operation mixes).
    pub pending_deviation: u64,
    /// In-flight operations over the read set.
    pub pending_operations: u64,
    /// Read-set items with pending changes.
    pub changed_items: u64,
}

/// One simulated site: its node while it is up, and its host.
#[derive(Debug)]
struct Site {
    /// `None` while the site is down: a crashed site has applied
    /// nothing and answers nothing.
    node: Option<Node>,
    /// The node's I/O; a crash keeps only its durable half.
    host: MemHost,
    /// The arrivals that found the site down, waiting as they would in
    /// their senders' stable queues.
    waiting: Vec<Arrival>,
    /// Boot count, carried by the restart `Hello`.
    epoch: u64,
    /// The site's series in the cluster registry: the node counts its
    /// events into them, [`SimCluster::try_query`] and
    /// [`SimCluster::refresh_metrics`] feed the rest. Outlives the node:
    /// a restarted incarnation reports to the same series.
    obs: NodeInstruments,
}

/// The simulated replicated system.
#[derive(Debug)]
pub struct SimCluster {
    config: ClusterConfig,
    sites: Vec<Site>,
    net: Network,
    sched: Scheduler<Arrival>,
    rng: DetRng,
    /// Lamport send clocks, one per site (ORDUP-L).
    send_clocks: Vec<LamportClock>,
    /// Per-origin FIFO counters (ORDUP-L).
    fifo_counters: Vec<SeqNo>,
    /// Global sequencer state (ORDUP-seq).
    next_seq: SeqNo,
    /// Global version clock (RITU).
    next_version_time: u64,
    /// All submissions by ET.
    submissions: BTreeMap<EtId, Submission>,
    next_et: u64,
    /// Global divergence-control lock-counters (§3.2): raised at
    /// origination, released once the update is resolved at every
    /// replica. Queries under COMMU/RITU/COMPE/ORDUP-L charge against
    /// these. An event-plane observer: it reads the cores' events and
    /// states and feeds nothing back.
    global_counters: LockCounters,
    /// Spatial divergence control (§5.1): tracks the pending value
    /// deviation / changed items alongside the operation counts.
    deviation: DeviationTracker,
    stats: ClusterStats,
    /// Shared metrics registry — every site bundle registers here; the
    /// snapshot is deterministic under the sim clock (the registry never
    /// reads wall time).
    metrics: MetricsRegistry,
    /// Per-site replica divergence vs. the global outcome
    /// (`esr_divergence`), refreshed by [`SimCluster::refresh_metrics`].
    divergence_gauge: GaugeFamily,
    /// Per-site VTNC lag in version-clock ticks (`esr_vtnc_lag`,
    /// RITU-MV only).
    vtnc_lag_gauge: GaugeFamily,
    /// `esr_updates_submitted_total{method=…}`.
    obs_updates: Counter,
    /// `esr_overlap_inflight`: updates currently raised in the global
    /// lock-counters (the overlap set queries are charged against).
    obs_overlap_inflight: Gauge,
    /// `esr_quiescence_progress_permille`: 1000 × resolved / submitted.
    obs_quiescence: Gauge,
}

impl SimCluster {
    /// Builds a cluster from a configuration.
    pub fn new(config: ClusterConfig) -> Self {
        assert!(config.sites > 0, "a cluster needs at least one site");
        let root = DetRng::new(config.seed);
        let topology = Topology::full_mesh(config.sites, config.link);
        let net = Network::new(topology, root.fork(1))
            .with_partitions(config.partitions.clone());
        let site_ids: Vec<SiteId> = (0..config.sites as u64).map(SiteId).collect();
        let metrics = MetricsRegistry::new();
        let sites = site_ids
            .iter()
            .map(|&id| {
                let obs = NodeInstruments::for_site(&metrics, config.method.name(), id);
                let mut host = MemHost::default();
                let node = Self::boot(&config, &mut host, id, 1, obs.clone());
                #[expect(clippy::expect_used, reason = "an empty journal has nothing to retire")]
                let node = node.expect("a cold boot");
                Site {
                    node: Some(node),
                    host,
                    waiting: Vec::new(),
                    epoch: 1,
                    obs,
                }
            })
            .collect();
        let divergence_gauge = GaugeFamily::new(&metrics, "esr_divergence");
        let vtnc_lag_gauge = GaugeFamily::new(&metrics, "esr_vtnc_lag");
        let obs_updates = metrics.counter(
            "esr_updates_submitted_total",
            &[("method", config.method.name())],
        );
        let obs_overlap_inflight = metrics.gauge("esr_overlap_inflight", &[]);
        let obs_quiescence = metrics.gauge("esr_quiescence_progress_permille", &[]);
        Self {
            sites,
            net,
            sched: Scheduler::new(),
            rng: root.fork(2),
            send_clocks: site_ids.iter().map(|&s| LamportClock::new(s)).collect(),
            fifo_counters: vec![SeqNo::ZERO; config.sites],
            next_seq: SeqNo::ZERO,
            next_version_time: 0,
            submissions: BTreeMap::new(),
            next_et: 1,
            global_counters: LockCounters::new(),
            deviation: DeviationTracker::new(),
            stats: ClusterStats::default(),
            metrics,
            divergence_gauge,
            vtnc_lag_gauge,
            obs_updates,
            obs_overlap_inflight,
            obs_quiescence,
            config,
        }
    }

    /// An empty replica for site `id`.
    fn fresh_state(config: &ClusterConfig, id: SiteId) -> SiteState {
        match config.method {
            Method::OrdupLamport => {
                let origins = (0..config.sites as u64).map(SiteId).collect();
                SiteState::ordup_lamport(id, origins)
            }
            method => SiteState::new(method.rt(), id),
        }
    }

    /// Boots `site`'s node over `host`, the boot `esrd` runs.
    fn boot(
        config: &ClusterConfig,
        host: &mut MemHost,
        site: SiteId,
        epoch: u64,
        obs: NodeInstruments,
    ) -> std::io::Result<Node> {
        let cfg = NodeConfig {
            site,
            sites: config.sites,
            method: config.method.rt(),
            epoch,
            ckpt_bytes: None,
            canary: None,
        };
        Node::boot(host, cfg, Self::fresh_state(config, site), obs)
    }

    /// Crashes `site` at the current virtual time, between two steps:
    /// its node, event log and links are gone, its journal, view
    /// register and snapshots stay, and every arrival from now on — peer
    /// frames and its own client plane alike — waits for
    /// [`SimCluster::restart`]. A frame it sent that has not arrived yet
    /// is lost with its link: the restart re-sends the journalled MSets
    /// it originated above each peer's cursor, and recovery re-derives
    /// the rest.
    pub fn crash(&mut self, site: SiteId) {
        let s = &mut self.sites[site.raw() as usize];
        assert!(
            s.node.take().is_some(),
            "crash of {site}, which is already down"
        );
        s.host.crash();
    }

    /// Restarts a crashed `site` the way `esrd` boots: a node boots over
    /// the host's durable half ([`Node::boot`]: restore or replay, into
    /// the recorded view, its links re-seeded) and commits what recovery
    /// stepped; then the site and every live peer greet each other with
    /// a `Hello`, as their reconnecting links do — which travels the
    /// simulated network like any other frame — and the site takes the
    /// arrivals that waited. A boot error leaves the site down.
    pub fn restart(&mut self, site: SiteId) -> std::io::Result<()> {
        let now = self.now();
        let s = &mut self.sites[site.raw() as usize];
        assert!(s.node.is_none(), "restart of {site}, which is up");
        s.host.set_now(now);
        let seen = s.host.events().len();
        let epoch = s.epoch + 1;
        let booted = Self::boot(&self.config, &mut s.host, site, epoch, s.obs.clone());
        s.node = Some(booted?);
        s.epoch = epoch;
        let waiting = std::mem::take(&mut s.waiting);
        self.drain(now, site, seen);
        // Every link between the site and a live peer reconnects, and
        // each end greets the other.
        for peer in self.site_ids().into_iter().filter(|p| *p != site) {
            self.send(now, site, peer, Frame::Hello { site, epoch }, None);
            let up = self.site(peer);
            if up.node.is_some() {
                let hello = Frame::Hello {
                    site: peer,
                    epoch: up.epoch,
                };
                self.send(now, peer, site, hello, None);
            }
        }
        for arrival in waiting {
            self.sched.schedule_at(now, arrival);
        }
        Ok(())
    }

    /// One heartbeat interval at every site that is up, now: the
    /// coordinator pings, a follower counts the silence and, after
    /// [`crate::ctrl::SUSPECT_AFTER`] silent ticks, starts an election.
    /// A fault operation like [`SimCluster::crash`]: a run that never
    /// calls it draws nothing extra from the network.
    pub fn tick(&mut self) {
        for site in self.site_ids() {
            self.step_site(site, NodeEvent::Tick);
        }
    }

    /// Cuts a checkpoint at `site` now and installs it, as
    /// `esrctl checkpoint` does; returns the chain's `(seq, covered)`.
    /// Each install retires the journal prefix the one before it
    /// covered.
    pub fn checkpoint(&mut self, site: SiteId) -> (u64, u64) {
        let chain = self.on_node(site, |node, host| node.checkpoint(host));
        chain.unwrap_or_else(|| panic!("checkpoint of {site}, which is down"))
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.sched.now()
    }

    /// Advances virtual time to `t`, processing every event scheduled to
    /// fire on the way — while a client thinks, the network keeps
    /// delivering.
    pub fn advance_to(&mut self, t: VirtualTime) {
        while let Some((_, e)) = self.sched.next_event_before(t) {
            self.arrive(e);
        }
        self.sched.advance_to(t);
    }

    /// Network statistics.
    pub fn net_stats(&self) -> NetStats {
        self.net.stats()
    }

    /// Run statistics.
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// One site's event log: every event its core emitted, as
    /// `(seq, virtual micros, event)` in emission order — the dump shape
    /// of `ProcCluster::trace_of`, holding the same typed [`Event`]s, ready for the trace certifier and the span
    /// merger.
    pub fn events_of(&self, site: SiteId) -> Vec<(u64, u64, Event)> {
        let log = self.site(site).host.events().iter().enumerate();
        log.map(|(seq, (at, event))| (seq as u64, at.as_micros(), event.clone()))
            .collect()
    }

    /// The cluster's metrics registry. The per-site counters and query
    /// series update live, as events are recorded and queries answered;
    /// every gauge read from state — the sites' own (backlog, at-risk,
    /// VTNC, …) and the cluster-computed ones (divergence, VTNC lag,
    /// overlap, quiescence progress) — updates on
    /// [`SimCluster::refresh_metrics`], which
    /// [`SimCluster::run_until_quiescent`] calls at the end of a run.
    /// Snapshots are deterministic: same seed, same workload —
    /// byte-identical [`MetricsRegistry::render`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Publishes every site's state-held gauges
    /// ([`SiteState::readings`]) and recomputes the cluster-derived ones
    /// at the current instant:
    ///
    /// * `esr_divergence{site}` — updates whose disposition at the site
    ///   disagrees with the global outcome (the true per-site error,
    ///   experiment E5); 0 everywhere at quiescence.
    /// * `esr_vtnc_lag{site}` — version-clock ticks between the global
    ///   version clock and the site's certified VTNC horizon (RITU-MV).
    /// * `esr_overlap_inflight` — size of the in-flight overlap set in
    ///   the global lock-counters.
    /// * `esr_quiescence_progress_permille` — 1000 × resolved updates /
    ///   submitted updates (1000 when nothing was submitted).
    pub fn refresh_metrics(&self) {
        let objects: Vec<ObjectId> = self
            .submissions
            .values()
            .flat_map(|sub| sub.ops.iter())
            .filter(|o| o.op.is_write())
            .map(|o| o.object)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        for id in self.site_ids() {
            let d = self.divergent_updates(id, &objects);
            self.divergence_gauge
                .set(id.raw(), i64::try_from(d).unwrap_or(i64::MAX));
            let Some(state) = self.state(id) else {
                continue;
            };
            publish_readings(state.readings(), self.site(id).obs.site());
            if let SiteState::RituMv(s) = state {
                let lag = self.next_version_time.saturating_sub(s.vtnc().time);
                self.vtnc_lag_gauge
                    .set(id.raw(), i64::try_from(lag).unwrap_or(i64::MAX));
            }
        }
        self.obs_overlap_inflight
            .set(i64::try_from(self.global_counters.in_flight()).unwrap_or(i64::MAX));
        let total = self.submissions.len();
        let resolved = self
            .submissions
            .iter()
            .filter(|(et, sub)| !self.survives(sub) || self.applied_everywhere(**et))
            .count();
        // An empty cluster is vacuously quiescent.
        let permille = (resolved * 1000).checked_div(total).map_or(1000, |p| p as i64);
        self.obs_quiescence.set(permille);
    }

    /// The site ids.
    pub fn site_ids(&self) -> Vec<SiteId> {
        (0..self.config.sites as u64).map(SiteId).collect()
    }

    fn site(&self, id: SiteId) -> &Site {
        &self.sites[id.raw() as usize]
    }

    /// `id`'s replica, while it is up.
    fn state(&self, id: SiteId) -> Option<&SiteState> {
        self.site(id).node.as_ref().map(|n| &n.core().state)
    }

    /// Has `id` applied `et`? A down site has applied nothing.
    fn has_applied(&self, id: SiteId, et: EtId) -> bool {
        self.state(id).is_some_and(|s| s.has_applied(et))
    }

    /// Does `sub` survive globally (always, except an aborted or still
    /// pending COMPE update)?
    fn survives(&self, sub: &Submission) -> bool {
        sub.commit || self.config.method != Method::Compe
    }

    fn applied_everywhere(&self, et: EtId) -> bool {
        self.site_ids()
            .into_iter()
            .all(|id| self.has_applied(id, et))
    }

    /// Submits an update ET at `origin` carrying `ops`, at the current
    /// virtual time. Returns the ET id. For RITU methods every write must
    /// be a `TimestampedWrite` — use [`SimCluster::submit_blind_write`]
    /// to stamp one from the global version clock (the core's VTNC
    /// certifier expects that clock's dense 1, 2, 3, … version times).
    pub fn submit_update(&mut self, origin: SiteId, ops: Vec<ObjectOp>) -> EtId {
        let commit = !self.rng.chance(self.config.abort_prob);
        let et = self.submit(origin, ops, commit);
        if self.config.method == Method::Compe {
            // The client decides after the delay and tells the origin.
            let decided_at = self.now() + DECISION_DELAY;
            self.decide_at(decided_at, et, origin, commit);
        }
        et
    }

    /// Stamps a blind write with the next global version and submits it
    /// (the natural RITU update).
    pub fn submit_blind_write(
        &mut self,
        origin: SiteId,
        object: ObjectId,
        value: Value,
    ) -> EtId {
        self.next_version_time += 1;
        let ts = VersionTs::new(self.next_version_time, ClientId(origin.raw()));
        self.submit_update(
            origin,
            vec![ObjectOp::new(object, Operation::TimestampedWrite(ts, value))],
        )
    }

    /// Submits a COMPE update whose global outcome stays **pending**
    /// until the caller decides it with [`SimCluster::resolve`] — the
    /// building block for sagas (§4.2), where each step remains
    /// compensatable until the whole saga finishes. Until resolution the
    /// update counts as at-risk everywhere: replicas keep it on their
    /// recovery logs and queries are charged for it.
    ///
    /// Panics unless the cluster runs [`Method::Compe`].
    pub fn submit_update_pending(&mut self, origin: SiteId, ops: Vec<ObjectOp>) -> EtId {
        assert_eq!(
            self.config.method,
            Method::Compe,
            "pending outcomes require the COMPE method"
        );
        // Pending: treated as not-surviving until resolved.
        self.submit(origin, ops, false)
    }

    /// Decides the outcome of a pending COMPE update: the client hands
    /// its commit/abort decision to the update's origin at the current
    /// time. Panics if `et` is unknown.
    #[expect(clippy::expect_used, reason = "resolving an unknown ET is a caller bug; the panic is the documented contract")]
    pub fn resolve(&mut self, et: EtId, commit: bool) {
        assert_eq!(self.config.method, Method::Compe);
        let sub = self
            .submissions
            .get_mut(&et)
            .expect("resolve of unknown update");
        sub.commit = commit;
        let origin = sub.origin;
        self.decide_at(self.now(), et, origin, commit);
    }

    /// Stamps one update (ET id, method order tag), hands it to the
    /// core as a client submit, and registers it with the observer: its
    /// lock-counters stay raised until it is resolved at every replica.
    fn submit(&mut self, origin: SiteId, ops: Vec<ObjectOp>, commit: bool) -> EtId {
        let et = EtId(self.next_et);
        self.next_et += 1;
        let now = self.now();
        // The client stamp lets the core absorb a duplicated submit.
        let mut mset = MSet::new(et, origin, ops.clone()).from_client(ClientId(0), et.0);
        let mut entry = origin;
        let mut seq = None;
        match self.config.method {
            Method::OrdupSeq => {
                // Route through the sequencer site — the coordinator of
                // view 0, which no `Tick` ever moves: origin → sequencer,
                // whose core fans out to every site.
                seq = Some(self.next_seq);
                entry = coordinator_of(0, self.config.sites);
                mset = mset.sequenced(self.next_seq);
                self.next_seq = self.next_seq.next();
            }
            Method::OrdupLamport => {
                let o = origin.raw() as usize;
                let fifo = self.fifo_counters[o];
                self.fifo_counters[o] = fifo.next();
                mset = mset.lamport(self.send_clocks[o].tick(), fifo);
            }
            _ => {}
        }
        let version = mset.max_version();
        self.send(now, origin, entry, Frame::Submit(mset), None);

        self.global_counters.begin_update(
            et,
            ops.iter().filter(|o| o.op.is_write()).map(|o| o.object),
        );
        self.deviation
            .begin(et, ops.iter().map(|o| (o.object, &o.op)));
        self.submissions.insert(
            et,
            Submission {
                ops,
                origin,
                submitted_at: now,
                commit,
                version,
                seq,
                decided: BTreeSet::new(),
            },
        );
        self.stats.updates += 1;
        self.obs_updates.inc();
        et
    }

    /// Schedules the client's COMPE decision for `et` to reach `origin`
    /// at `at`; the origin's core forwards it to the coordinator.
    fn decide_at(&mut self, at: VirtualTime, et: EtId, origin: SiteId, commit: bool) {
        if !commit {
            self.stats.aborts += 1;
        }
        let frame = Frame::Decision { et, commit };
        self.sched.schedule_at(
            at,
            Arrival {
                from: origin,
                to: origin,
                frame,
                epoch: 0,
                entry: None,
            },
        );
    }

    /// Puts `frame` — entry `entry` of the link, if a link holds it —
    /// on the wire from `from` to `to` at `now`: one scheduled arrival
    /// per copy the network plans (a hop to oneself is immediate). Sized
    /// by the MSet's wire footprint, so bandwidth-limited links charge
    /// serialization delay and congest.
    fn send(
        &mut self,
        now: VirtualTime,
        from: SiteId,
        to: SiteId,
        frame: Frame,
        entry: Option<u64>,
    ) {
        let epoch = self.site(from).epoch;
        let arrival = |frame| Arrival {
            from,
            to,
            frame,
            epoch,
            entry,
        };
        if from == to {
            self.sched.schedule_at(now, arrival(frame));
            return;
        }
        let bytes = match &frame {
            Frame::MSet(m) | Frame::Submit(m) => m.wire_size(),
            _ => 0,
        };
        let planned = self.net.plan_send_sized(from, to, now, bytes);
        if let Some((last, copies)) = planned.split_last() {
            for d in copies {
                self.sched.schedule_at(d.at, arrival(frame.clone()));
            }
            self.sched.schedule_at(last.at, arrival(frame));
        }
    }

    /// Steps the receiving site's node with one arrived frame, which
    /// acknowledges it on the sender's link — unless the sender crashed
    /// since it sent it, which lost the frame with the link.
    fn arrive(&mut self, arrival: Arrival) {
        let sender = self.site(arrival.from);
        if arrival.entry.is_some() && (sender.node.is_none() || sender.epoch != arrival.epoch) {
            return;
        }
        let site = &mut self.sites[arrival.to.raw() as usize];
        if site.node.is_none() {
            site.waiting.push(arrival);
            self.stats.redelivered += 1;
            return;
        }
        let Arrival {
            from,
            to,
            frame,
            entry,
            ..
        } = arrival;
        if let Frame::MSet(m) | Frame::Submit(m) = &frame {
            if let OrderTag::Lamport { ts, .. } = m.order {
                self.send_clocks[to.raw() as usize].observe(ts);
            }
        }
        let event = match frame {
            Frame::Submit(mset) => NodeEvent::ClientSubmit(mset),
            Frame::Decision { et, commit } if from == to => {
                NodeEvent::ClientDecision { et, commit }
            }
            frame => NodeEvent::PeerFrame(frame),
        };
        self.step_site(to, event);
        if let Some(entry) = entry {
            self.sites[from.raw() as usize].host.ack(to, entry);
        }
    }

    /// Steps `site`'s node on `event` now and commits the step; a down
    /// site takes no step.
    fn step_site(&mut self, site: SiteId, event: NodeEvent) {
        self.on_node(site, |node, host| {
            node.dispatch(host, event);
            node.commit(host);
        });
    }

    /// Runs `op` on `site`'s node and host now, then drains what it
    /// recorded and sent; `None` when the site is down.
    fn on_node<R>(
        &mut self,
        site: SiteId,
        op: impl FnOnce(&mut Node, &mut MemHost) -> R,
    ) -> Option<R> {
        let now = self.now();
        let s = &mut self.sites[site.raw() as usize];
        let node = s.node.as_mut()?;
        s.host.set_now(now);
        let seen = s.host.events().len();
        let out = op(node, &mut s.host);
        self.drain(now, site, seen);
        Some(out)
    }

    /// Hands the observer the events `site` recorded from index `seen`
    /// on, then puts what its commit sent on the wire, in plan order.
    fn drain(&mut self, now: VirtualTime, site: SiteId, seen: usize) {
        let host = &mut self.sites[site.raw() as usize].host;
        let events: Vec<Event> = host.events()[seen..].iter().map(|(_, e)| e.clone()).collect();
        let outbox = host.take_sent();
        for event in &events {
            self.observe(now, site, event);
        }
        for (to, frames) in outbox {
            for (entry, frame) in frames {
                self.send(now, site, to, frame, Some(entry));
            }
        }
    }

    /// The measurement side's only input: the events the nodes record.
    fn observe(&mut self, now: VirtualTime, site: SiteId, event: &Event) {
        let rec = match event {
            Event::Span(rec) => rec,
            // A restore is the restarted site's apply of everything its
            // image covers.
            Event::CkptRestore { .. } => {
                let ets: Vec<EtId> = self.submissions.keys().copied().collect();
                for et in ets {
                    self.release_if_resolved(et);
                }
                return;
            }
            _ => return,
        };
        let Some(et) = rec.et else { return };
        match rec.stage {
            // A replay is the restarted site's apply.
            SpanStage::Apply | SpanStage::Replay => self.release_if_resolved(et),
            SpanStage::Decision => {
                if let Some(sub) = self.submissions.get_mut(&et) {
                    sub.decided.insert(site);
                }
                if rec.commit == Some(false) {
                    self.refresh_rollback_stats();
                }
                self.release_if_resolved(et);
            }
            SpanStage::CompleteCert => {
                if let Some(sub) = self.submissions.get(&et) {
                    self.stats.completion_latencies.push(now - sub.submitted_at);
                }
            }
            _ => {}
        }
    }

    /// Releases an update's lock-counters once no replica can disagree
    /// with its global outcome any more: every site has applied it —
    /// or, under COMPE, every site has recorded the decision and (for a
    /// commit) applied the MSet. Until then some replica may still be
    /// missing its effect, or still showing an effect due to be
    /// compensated, so queries must keep being charged for it.
    fn release_if_resolved(&mut self, et: EtId) {
        let Some(sub) = self.submissions.get(&et) else {
            return;
        };
        let resolved = if self.config.method == Method::Compe {
            sub.decided.len() == self.config.sites
                && (!sub.commit || self.applied_everywhere(et))
        } else {
            self.applied_everywhere(et)
        };
        if resolved {
            self.global_counters.end_update(et);
            self.deviation.end(et);
        }
    }

    /// Re-reads the sites' cumulative rollback costs into the run
    /// statistics (E8's columns).
    fn refresh_rollback_stats(&mut self) {
        let states = self.sites.iter().filter_map(|site| site.node.as_ref());
        let costs = states.filter_map(|node| match &node.core().state {
            SiteState::Compe(s) => Some(s.rollback_totals()),
            _ => None,
        });
        let stats = &mut self.stats;
        stats.fast_compensations = costs.clone().map(|c| c.fast).sum();
        stats.suffix_rollbacks = costs.clone().map(|c| c.suffix).sum();
        stats.ops_undone = costs.clone().map(|c| c.ops_undone).sum();
        stats.ops_replayed = costs.map(|c| c.ops_replayed).sum();
    }

    /// Processes a single pending event. Returns `false` when none
    /// remain.
    pub fn step(&mut self) -> bool {
        match self.sched.next_event() {
            Some((_, e)) => {
                self.arrive(e);
                true
            }
            None => false,
        }
    }

    /// Processes events until the queue drains, then (for ORDUP-Lamport)
    /// steps every site on the final heartbeats that stabilize the tail.
    /// Returns the virtual time at quiescence.
    pub fn run_until_quiescent(&mut self) -> VirtualTime {
        while self.step() {}
        if self.config.method == Method::OrdupLamport {
            // One heartbeat per origin, carrying a clock strictly past
            // every timestamp it ever issued.
            let beats: Vec<(SiteId, LamportTs)> = self
                .send_clocks
                .iter()
                .map(|c| {
                    let mut ts = c.peek();
                    ts.counter += 1;
                    (c.site(), ts)
                })
                .collect();
            for id in self.site_ids() {
                for &(origin, ts) in &beats {
                    self.step_site(id, NodeEvent::Heartbeat { origin, ts });
                }
            }
        }
        self.refresh_metrics();
        self.now()
    }

    /// Attempts a query once at the current time, using the method's
    /// divergence control to compute the inconsistency charge:
    ///
    /// * **ORDUP (sequencer)** — the query takes a global order token;
    ///   the charge is the gap between the token and the site's applied
    ///   prefix (every sequenced-but-unapplied update might conflict).
    /// * **RITU multiversion** — the site charges per read above the
    ///   VTNC, falling back to the stable version when the budget runs
    ///   out.
    /// * **everything else** — the global lock-counters (§3.2): one unit
    ///   per in-flight update writing a queried object. In-flight covers
    ///   every update not yet resolved at every replica, so the measured
    ///   staleness of the answer can never exceed the charge.
    pub fn try_query(
        &mut self,
        site: SiteId,
        read_set: &[ObjectId],
        epsilon: EpsilonSpec,
    ) -> QueryOutcome {
        let mut counter = InconsistencyCounter::new(epsilon);
        let Site { node, obs, .. } = &mut self.sites[site.raw() as usize];
        let out = match node.as_mut().map(Node::state_mut) {
            // A down site answers nothing.
            None => QueryOutcome::rejected(),
            Some(state @ SiteState::RituMv(_)) => state.query(read_set, &mut counter),
            Some(state) => {
                // The admission decision is made here, against the
                // *global* divergence control — the site only ever sees
                // an unbounded wrapper, and what it would have charged
                // is discarded.
                let charge = match state {
                    SiteState::Ordup(s) => s.gap_to(self.next_seq),
                    _ => self
                        .global_counters
                        .inconsistency_of_set(read_set.iter().copied()),
                };
                if counter.charge(charge).is_admitted() {
                    let mut unbounded = InconsistencyCounter::new(EpsilonSpec::UNBOUNDED);
                    let values = state.query(read_set, &mut unbounded).values;
                    QueryOutcome {
                        values,
                        charged: charge,
                        admitted: true,
                    }
                } else {
                    QueryOutcome::rejected()
                }
            }
        };
        obs.site().query(out.charged, epsilon.limit, out.admitted);
        if out.admitted {
            self.stats.queries_served += 1;
            self.stats.total_charged += out.charged;
        } else {
            self.stats.queries_rejected += 1;
        }
        out
    }

    /// The outcome of a spatially-bounded query (§5.1 extension).
    pub fn try_query_spatial(
        &mut self,
        site: SiteId,
        read_set: &[ObjectId],
        spec: SpatialSpec,
    ) -> SpatialQueryOutcome {
        let admitted = self.deviation.admits(read_set, spec);
        let pending_deviation = self.deviation.pending_deviation(read_set);
        let pending_operations = self.deviation.pending_operations(read_set);
        let changed_items = self.deviation.changed_items(read_set);
        let values = match &mut self.sites[site.raw() as usize].node {
            Some(node) if admitted => {
                let mut unbounded = InconsistencyCounter::new(EpsilonSpec::UNBOUNDED);
                node.state_mut().query(read_set, &mut unbounded).values
            }
            _ => Vec::new(),
        };
        if admitted {
            self.stats.queries_served += 1;
        } else {
            self.stats.queries_rejected += 1;
        }
        SpatialQueryOutcome {
            values,
            admitted,
            pending_deviation,
            pending_operations,
            changed_items,
        }
    }

    /// Serves a query, retrying after each event while the budget cannot
    /// absorb the visible inconsistency — the synchronous fallback path
    /// ("the query ET is allowed to proceed only when it is running in
    /// the global order"). Terminates because at quiescence every
    /// method's visible inconsistency is zero.
    pub fn query_with_retry(
        &mut self,
        site: SiteId,
        read_set: &[ObjectId],
        epsilon: EpsilonSpec,
    ) -> QueryReport {
        let mut retries = 0;
        loop {
            let out = self.try_query(site, read_set, epsilon);
            if out.admitted {
                return QueryReport {
                    values: out.values,
                    charged: out.charged,
                    served_at: self.now(),
                    retries,
                };
            }
            retries += 1;
            if !self.step() {
                // Quiescent: flush ORDUP-L tails and serve.
                self.run_until_quiescent();
                let out = self.try_query(site, read_set, epsilon);
                assert!(
                    out.admitted,
                    "{}: query must be admissible at quiescence",
                    self.config.method.name()
                );
                return QueryReport {
                    values: out.values,
                    charged: out.charged,
                    served_at: self.now(),
                    retries,
                };
            }
        }
    }

    /// One site's full snapshot.
    pub fn snapshot_of(&self, site: SiteId) -> BTreeMap<ObjectId, Value> {
        self.state(site)
            .map(SiteState::snapshot)
            .unwrap_or_default()
    }

    /// Strips zero values: an object never written and an object whose
    /// effects were fully compensated both read as [`Value::ZERO`], so
    /// state comparison must treat them identically.
    fn normalize(m: BTreeMap<ObjectId, Value>) -> BTreeMap<ObjectId, Value> {
        m.into_iter().filter(|(_, v)| *v != Value::ZERO).collect()
    }

    /// True when every replica exposes semantically identical values
    /// (call after [`SimCluster::run_until_quiescent`]).
    pub fn converged(&self) -> bool {
        let first = Self::normalize(self.snapshot_of(SiteId(0)));
        self.site_ids()
            .into_iter()
            .all(|id| Self::normalize(self.snapshot_of(id)) == first)
    }

    /// True when replica state semantically equals the serial oracle
    /// ([`SimCluster::expected_state`]).
    pub fn matches_oracle(&self) -> bool {
        Self::normalize(self.snapshot_of(SiteId(0))) == Self::normalize(self.expected_state())
    }

    /// Total backlog across sites (should be zero at quiescence).
    pub fn total_backlog(&self) -> usize {
        let ids = self.site_ids().into_iter();
        ids.filter_map(|id| self.state(id))
            .map(SiteState::backlog)
            .sum()
    }

    /// The 1SR oracle: the state produced by applying every *surviving*
    /// (committed) update in its serialization order — sequence order for
    /// ORDUP, version order for RITU, submission order for the
    /// commutative methods (any order yields the same state).
    #[expect(clippy::expect_used, reason = "a rejected apply is replica-state corruption; panicking is the documented contract")]
    pub fn expected_state(&self) -> BTreeMap<ObjectId, Value> {
        let mut subs: Vec<&Submission> = self
            .submissions
            .values()
            .filter(|s| self.survives(s))
            .collect();
        match self.config.method {
            Method::OrdupSeq => subs.sort_by_key(|s| s.seq),
            Method::RituOverwrite | Method::RituMv => subs.sort_by_key(|s| s.version),
            // Submission order equals EtId order for the rest. For
            // ORDUP-L the Lamport order also equals submission order in
            // this driver because each submission ticks the origin clock
            // at submit time and the scheduler hands out monotone times —
            // convergence tests verify this empirically.
            _ => {}
        }
        let mut store = ObjectStore::new();
        for op in subs.iter().flat_map(|s| &s.ops).filter(|o| o.op.is_write()) {
            match &op.op {
                // The sort above fixed the version order, so
                // last-writer-wins is a plain overwrite fold.
                Operation::TimestampedWrite(_, v) => store.put(op.object, v.clone()),
                _ => {
                    store.apply(op).expect("oracle ops apply cleanly");
                }
            }
        }
        store.snapshot()
    }

    /// The true per-query error (experiment E5): the number of update
    /// ETs writing any of `objects` whose disposition at `site` disagrees
    /// with the global outcome right now — committed/surviving updates
    /// the site has **not** applied, plus (under COMPE) aborted updates
    /// whose effects are **still** visible because the compensation has
    /// not run yet.
    pub fn divergent_updates(&self, site: SiteId, objects: &[ObjectId]) -> u64 {
        self.submissions
            .iter()
            .filter(|(et, sub)| {
                sub.ops
                    .iter()
                    .any(|o| o.op.is_write() && objects.contains(&o.object))
                    && self.survives(sub) != self.has_applied(site, **et)
            })
            .count() as u64
    }

    /// Committed updates writing any of `objects` not yet applied at
    /// `site` (a one-sided view of [`SimCluster::divergent_updates`]).
    pub fn missing_updates(&self, site: SiteId, objects: &[ObjectId]) -> u64 {
        self.submissions
            .iter()
            .filter(|(et, sub)| {
                self.survives(sub)
                    && sub
                        .ops
                        .iter()
                        .any(|o| o.op.is_write() && objects.contains(&o.object))
                    && !self.has_applied(site, **et)
            })
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctrl::Record;
    use esr_net::latency::LatencyModel;
    use esr_storage::snapshot;

    const X: ObjectId = ObjectId(0);

    fn lossy_config(method: Method) -> ClusterConfig {
        ClusterConfig::new(method)
            .with_link(LinkConfig {
                latency: LatencyModel::Uniform(
                    Duration::from_millis(1),
                    Duration::from_millis(40),
                ),
                drop_prob: 0.2,
                duplicate_prob: 0.1,
                bandwidth: None,
            })
            .with_seed(99)
    }

    fn incr_op(n: i64) -> Vec<ObjectOp> {
        vec![ObjectOp::new(X, Operation::Incr(n))]
    }

    #[test]
    fn ordup_seq_converges_and_matches_oracle() {
        let mut c = SimCluster::new(lossy_config(Method::OrdupSeq));
        for i in 0..20 {
            let origin = SiteId(i % 4);
            c.submit_update(origin, vec![ObjectOp::new(X, Operation::Incr(i as i64))]);
            c.submit_update(origin, vec![ObjectOp::new(X, Operation::MulBy(1 + (i as i64 % 2)))]);
        }
        c.run_until_quiescent();
        assert!(c.converged(), "replicas diverged");
        assert_eq!(c.total_backlog(), 0);
        assert!(c.matches_oracle());
    }

    #[test]
    fn ordup_lamport_converges_and_matches_oracle() {
        let mut c = SimCluster::new(lossy_config(Method::OrdupLamport));
        for i in 0..20 {
            c.submit_update(
                SiteId(i % 4),
                vec![ObjectOp::new(X, Operation::Incr(1 + i as i64))],
            );
            c.submit_update(
                SiteId((i + 1) % 4),
                vec![ObjectOp::new(X, Operation::MulBy(1 + (i as i64 % 2)))],
            );
        }
        c.run_until_quiescent();
        assert!(c.converged(), "replicas diverged");
        assert_eq!(c.total_backlog(), 0);
    }

    #[test]
    fn commu_converges_to_oracle() {
        let mut c = SimCluster::new(lossy_config(Method::Commu));
        for i in 0..30 {
            c.submit_update(SiteId(i % 4), incr_op(i as i64));
        }
        c.run_until_quiescent();
        assert!(c.converged());
        assert!(c.matches_oracle());
    }

    #[test]
    fn ritu_overwrite_converges_to_newest_version() {
        let mut c = SimCluster::new(lossy_config(Method::RituOverwrite));
        for i in 0..15 {
            c.submit_blind_write(SiteId(i % 4), X, Value::Int(i as i64 * 10));
        }
        c.run_until_quiescent();
        assert!(c.converged());
        assert_eq!(c.snapshot_of(SiteId(0))[&X], Value::Int(140));
        assert_eq!(c.expected_state()[&X], Value::Int(140));
    }

    #[test]
    fn ritu_mv_converges_and_vtnc_advances() {
        let mut c = SimCluster::new(lossy_config(Method::RituMv));
        for i in 0..10 {
            c.submit_blind_write(SiteId(i % 4), X, Value::Int(i as i64));
        }
        c.run_until_quiescent();
        assert!(c.converged());
        // At quiescence the certified VTNC covers every version, so a
        // strict query reads the newest value with zero charge.
        let out = c.try_query(SiteId(1), &[X], EpsilonSpec::STRICT);
        assert!(out.admitted);
        assert_eq!(out.charged, 0);
        assert_eq!(out.values, vec![Value::Int(9)]);
    }

    #[test]
    fn compe_aborts_are_compensated_consistently() {
        let mut cfg = lossy_config(Method::Compe);
        cfg.abort_prob = 0.4;
        let mut c = SimCluster::new(cfg);
        for i in 0..30 {
            c.submit_update(SiteId(i % 4), incr_op(1 + i as i64));
        }
        c.run_until_quiescent();
        assert!(c.converged(), "replicas diverged after compensations");
        assert!(c.matches_oracle());
        assert!(c.stats().aborts > 0, "with p=0.4 some aborts must occur");
        let compensated = c.stats().fast_compensations + c.stats().suffix_rollbacks;
        assert!(compensated > 0, "some compensations must have run");
        // An abort can race ahead of its MSet (then the MSet is simply
        // suppressed), so per-site compensations are at most aborts × sites.
        assert!(compensated <= c.stats().aborts * 4);
    }

    #[test]
    fn query_with_retry_eventually_serves_strict_queries() {
        let mut c = SimCluster::new(lossy_config(Method::OrdupSeq));
        for i in 0..10 {
            c.submit_update(SiteId(0), incr_op(i as i64));
        }
        let report = c.query_with_retry(SiteId(3), &[X], EpsilonSpec::STRICT);
        assert_eq!(report.charged, 0, "strict query imports nothing");
        // Served value equals the oracle at quiescence (all updates in).
        let expected = c.expected_state()[&X].clone();
        c.run_until_quiescent();
        assert_eq!(c.snapshot_of(SiteId(3))[&X], expected);
    }

    #[test]
    fn unbounded_queries_never_wait() {
        let mut c = SimCluster::new(lossy_config(Method::Commu));
        for i in 0..10 {
            c.submit_update(SiteId(0), incr_op(i as i64));
        }
        let report = c.query_with_retry(SiteId(1), &[X], EpsilonSpec::UNBOUNDED);
        assert_eq!(report.retries, 0, "unbounded queries are served at once");
    }

    #[test]
    fn missing_updates_counts_staleness() {
        let mut c = SimCluster::new(lossy_config(Method::Commu));
        c.submit_update(SiteId(0), incr_op(5));
        // Immediately after submit, remote sites have applied nothing.
        assert_eq!(c.missing_updates(SiteId(3), &[X]), 1);
        c.run_until_quiescent();
        assert_eq!(c.missing_updates(SiteId(3), &[X]), 0);
    }

    #[test]
    fn same_seed_reproduces_run() {
        let run = || {
            let mut c = SimCluster::new(lossy_config(Method::Commu));
            for i in 0..20 {
                c.submit_update(SiteId(i % 4), incr_op(i as i64));
            }
            let t = c.run_until_quiescent();
            let logs: Vec<_> = c
                .site_ids()
                .into_iter()
                .map(|s| c.events_of(s))
                .collect();
            (t, c.net_stats(), c.snapshot_of(SiteId(0)), logs)
        };
        let (t1, n1, s1, l1) = run();
        let (t2, n2, s2, l2) = run();
        assert_eq!(t1, t2);
        assert_eq!(n1, n2);
        assert_eq!(s1, s2);
        assert!(l1.iter().all(|log| !log.is_empty()));
        assert_eq!(l1, l2, "per-site event logs differ across identical seeded runs");
    }

    #[test]
    fn bandwidth_limited_cluster_converges_and_slows() {
        use esr_net::latency::LatencyModel;
        let run = |bandwidth: Option<u64>| {
            let mut link =
                LinkConfig::reliable(LatencyModel::Constant(Duration::from_millis(1)));
            link.bandwidth = bandwidth;
            let mut c = SimCluster::new(
                ClusterConfig::new(Method::Commu)
                    .with_sites(3)
                    .with_link(link)
                    .with_seed(4),
            );
            for i in 0..20 {
                c.submit_update(SiteId(0), incr_op(i));
            }
            let t = c.run_until_quiescent();
            assert!(c.converged());
            t
        };
        let fast = run(None);
        let slow = run(Some(10_000)); // 10 KB/s: ~4ms serialization per MSet
        assert!(
            slow > fast,
            "bandwidth limit must delay quiescence: {slow} vs {fast}"
        );
    }

    #[test]
    fn a_restarted_site_recording_a_decision_again_still_releases_the_counters() {
        // A starved link delays the MSet (≈ 40 bytes at 1 kB/s) far
        // behind its zero-byte commit decision, so every follower
        // records the decision first; site 1 then restarts with an empty
        // journal and records it a second time — a fourth record on
        // three sites — before anyone but the origin has applied.
        let link = LinkConfig::reliable(LatencyModel::Constant(Duration::from_millis(5)))
            .with_bandwidth(1_000);
        let mut c = SimCluster::new(
            ClusterConfig::new(Method::Compe)
                .with_sites(3)
                .with_link(link),
        );
        let et = c.submit_update_pending(SiteId(0), incr_op(7));
        c.resolve(et, true);
        c.advance_to(VirtualTime::from_millis(10));
        c.crash(SiteId(1));
        c.restart(SiteId(1)).unwrap();
        c.run_until_quiescent();
        let decisions = |site| {
            let log = c.events_of(site);
            let is_decision =
                |e: &Event| matches!(e, Event::Span(r) if r.stage == SpanStage::Decision);
            log.iter().filter(|(_, _, e)| is_decision(e)).count()
        };
        assert_eq!(decisions(SiteId(1)), 1, "the new incarnation re-learned it");
        assert!(c.converged() && c.matches_oracle());
        let out = c.try_query(SiteId(2), &[X], EpsilonSpec::STRICT);
        assert!(out.admitted, "the update is resolved everywhere, yet still charged");
        assert_eq!(out.values, vec![Value::Int(7)]);
    }

    #[test]
    fn a_replayed_update_stops_being_charged() {
        // Site 2 applies only after site 1 has crashed; site 1's apply
        // comes back as a replay, which must release the counters.
        let link = LinkConfig::reliable(LatencyModel::Constant(Duration::from_millis(5)));
        let cut = esr_net::PartitionWindow::isolate(
            VirtualTime::ZERO,
            VirtualTime::from_millis(100),
            SiteId(2),
            [SiteId(0), SiteId(1)],
        );
        let mut c = SimCluster::new(
            ClusterConfig::new(Method::Commu)
                .with_sites(3)
                .with_link(link)
                .with_partitions(PartitionSchedule::new(vec![cut])),
        );
        c.submit_update(SiteId(0), incr_op(7));
        c.advance_to(VirtualTime::from_millis(10));
        c.crash(SiteId(1));
        c.advance_to(VirtualTime::from_millis(200));
        assert_eq!(c.missing_updates(SiteId(1), &[X]), 1, "a down site holds nothing");
        let down = c.try_query(SiteId(0), &[X], EpsilonSpec::STRICT);
        assert!(!down.admitted, "site 1 has not (re)applied it yet");
        c.restart(SiteId(1)).unwrap();
        let out = c.try_query(SiteId(0), &[X], EpsilonSpec::STRICT);
        assert!(out.admitted && out.charged == 0);
        c.run_until_quiescent();
        assert!(c.converged() && c.matches_oracle());
    }

    #[test]
    fn completion_latencies_recorded_for_commu() {
        let mut c = SimCluster::new(lossy_config(Method::Commu));
        for i in 0..5 {
            c.submit_update(SiteId(0), incr_op(i as i64));
        }
        c.run_until_quiescent();
        assert_eq!(c.stats().completion_latencies.len(), 5);
        assert!(c
            .stats()
            .completion_latencies
            .iter()
            .all(|d| *d > Duration::ZERO));
    }

    /// A restart re-sends exactly the MSets the site originated above
    /// each peer's cursor in its newest cursor record: what every peer
    /// had acknowledged when the last append was made is not sent
    /// again, what the crash lost in flight is.
    #[test]
    fn a_restart_resends_only_what_its_peers_had_not_acknowledged() {
        let link = LinkConfig::reliable(LatencyModel::Constant(Duration::from_millis(5)));
        let config = ClusterConfig::new(Method::Commu).with_sites(3);
        let mut c = SimCluster::new(config.with_link(link));
        c.submit_update(SiteId(1), incr_op(1));
        c.submit_update(SiteId(1), incr_op(2));
        c.run_until_quiescent();
        let et3 = c.submit_update(SiteId(1), incr_op(3));
        assert!(c.step(), "site 1 takes the submit");
        c.crash(SiteId(1));
        let journal = &c.sites[1].host.journal;
        let ids: Vec<u64> = journal.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, [0, 1, 2, 3], "et1, et2, et3, and et3's cursor record");
        let acked = Record::Cursors(vec![Some(1), None, Some(1)]);
        assert_eq!(journal[3].1, acked, "et3's append recorded et1 and et2 acknowledged");
        c.restart(SiteId(1)).unwrap();
        c.run_until_quiescent();
        assert!(c.converged() && c.matches_oracle());
        for peer in [SiteId(0), SiteId(2)] {
            let log = c.events_of(peer);
            let dups = log.iter().filter(|(_, _, e)| matches!(e, Event::DuplicateDelivery { .. }));
            assert_eq!(dups.count(), 0, "{peer} was sent nothing it had");
            assert!(c.has_applied(peer, et3), "{peer} got the update the crash lost");
        }
    }

    /// One COMMU site checkpointed after each of six updates: installs
    /// 1–6 and one live journal record, the rest retired lag-by-one.
    fn six_installs() -> SimCluster {
        let mut c = SimCluster::new(ClusterConfig::new(Method::Commu).with_sites(1));
        for _ in 0..6 {
            c.submit_update(SiteId(0), incr_op(1));
            c.run_until_quiescent();
            c.checkpoint(SiteId(0));
        }
        assert_eq!(c.sites[0].host.journal.len(), 1);
        c
    }

    fn garbage(seq: u64) -> Vec<u8> {
        snapshot::encode_container(seq, b"not a payload")
    }

    /// A container whose CRC holds but whose payload does not decode
    /// must not send boot to a replay of a journal truncation already
    /// cut: boot restores the newest image that does, the one before.
    #[test]
    fn an_undecodable_newest_snapshot_boots_from_the_one_before() {
        let mut c = six_installs();
        c.sites[0].host.snapshots.push((7, garbage(7)));
        c.crash(SiteId(0));
        c.restart(SiteId(0)).unwrap();
        let boot = c
            .events_of(SiteId(0))
            .into_iter()
            .find_map(|(_, _, e)| match e {
                Event::Boot {
                    snapshot, replayed, ..
                } => Some((snapshot, replayed)),
                _ => None,
            });
        assert_eq!(boot, Some((Some((6, 6)), 0)));
        assert_eq!(c.snapshot_of(SiteId(0))[&X], Value::Int(6));
    }

    /// With no container that restores, a journal a checkpoint retired
    /// records from cannot be replayed: boot fails, and the site stays
    /// down instead of serving a replica missing acknowledged updates.
    #[test]
    fn no_usable_snapshot_over_a_truncated_journal_is_a_boot_error() {
        let mut c = six_installs();
        for (seq, container) in &mut c.sites[0].host.snapshots {
            *container = garbage(*seq);
        }
        c.crash(SiteId(0));
        let err = c.restart(SiteId(0)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(c.sites[0].node.is_none(), "the site stays down");
    }
}

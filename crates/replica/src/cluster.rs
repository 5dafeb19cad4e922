//! The simulated replicated system: sites + network + replica control.
//!
//! `SimCluster` wires one [`crate::site::ReplicaSite`] implementation
//! per site to the deterministic network and event
//! scheduler. It owns the method-specific coordination services the paper
//! assumes around each method:
//!
//! * the **ORDUP sequencer** (MSets route through the sequencer site,
//!   which stamps dense sequence numbers and fans out);
//! * Lamport **send clocks** and per-origin FIFO numbers for distributed
//!   ORDUP, plus the heartbeat flush that stabilizes the tail;
//! * **completion tracking** for COMMU/RITU lock-counters (each replica
//!   acks its apply to the origin; the origin broadcasts a completion
//!   notice);
//! * the **VTNC certifier** for RITU multiversion (advances the horizon
//!   once every version below it is installed everywhere);
//! * the **commit coordinator** for COMPE (decides commit/abort after a
//!   configurable delay and broadcasts outcome notices).
//!
//! Everything — updates, acks, notices — travels through the simulated
//! network with latency, loss, duplication, and partitions, so the whole
//! run is reproducible from the seed.

use std::collections::BTreeMap;

use esr_core::divergence::{EpsilonSpec, InconsistencyCounter, LockCounters};
use esr_core::spatial::{DeviationTracker, SpatialSpec};
use esr_core::ids::{ClientId, EtId, ObjectId, SeqNo, SiteId, VersionTs};
use esr_core::op::{ObjectOp, Operation};
use esr_core::value::Value;
use esr_net::topology::{LinkConfig, Topology};
use esr_net::transport::{NetStats, Network};
use esr_obs::{Counter, Gauge, GaugeFamily, MetricsRegistry, SiteInstruments};
use esr_net::PartitionSchedule;
use esr_sim::clock::LamportClock;
use esr_sim::rng::DetRng;
use esr_sim::sched::Scheduler;
use esr_sim::time::{Duration, VirtualTime};
use esr_storage::recovery_log::RollbackStrategy;
use esr_storage::store::ObjectStore;

use crate::commu::CommuSite;
use crate::compe::CompeSite;
use crate::mset::MSet;
use crate::ordup::{OrdupLamportSite, OrdupSite};
use crate::ritu::{RituMvSite, RituOverwriteSite};
use crate::site::{QueryOutcome, ReplicaSite};

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
}

/// One site's state machine, dispatched by method.
#[derive(Debug)]
enum SiteImpl {
    OrdupSeq(OrdupSite),
    OrdupLamport(OrdupLamportSite),
    Commu(CommuSite),
    RituOverwrite(RituOverwriteSite),
    RituMv(RituMvSite),
    Compe(CompeSite),
}

macro_rules! dispatch {
    ($self:expr, $site:pat => $body:expr) => {
        match $self {
            SiteImpl::OrdupSeq($site) => $body,
            SiteImpl::OrdupLamport($site) => $body,
            SiteImpl::Commu($site) => $body,
            SiteImpl::RituOverwrite($site) => $body,
            SiteImpl::RituMv($site) => $body,
            SiteImpl::Compe($site) => $body,
        }
    };
}

impl SiteImpl {
    fn deliver(&mut self, mset: MSet) {
        dispatch!(self, s => s.deliver(mset))
    }
    fn deliver_batch(&mut self, msets: Vec<MSet>) {
        dispatch!(self, s => s.deliver_batch(msets))
    }
    fn query(&mut self, read_set: &[ObjectId], c: &mut InconsistencyCounter) -> QueryOutcome {
        dispatch!(self, s => s.query(read_set, c))
    }
    fn snapshot(&self) -> BTreeMap<ObjectId, Value> {
        dispatch!(self, s => s.snapshot())
    }
    fn backlog(&self) -> usize {
        dispatch!(self, s => s.backlog())
    }
    fn has_applied(&self, et: EtId) -> bool {
        dispatch!(self, s => s.has_applied(et))
    }
    fn attach_metrics(&mut self, obs: SiteInstruments) {
        dispatch!(self, s => s.attach_metrics(obs))
    }
}

/// Simulation events.
#[derive(Debug, Clone)]
enum Event {
    /// An update MSet arrives at a site.
    Deliver { to: SiteId, mset: MSet },
    /// A replica acknowledges applying `et` to the coordinator.
    Ack { et: EtId, from: SiteId },
    /// The completion notice for `et` arrives at a site (lock-counters
    /// drop).
    Complete { to: SiteId, et: EtId },
    /// The COMPE coordinator's decision for `et` arrives at a site.
    Outcome { to: SiteId, et: EtId, commit: bool },
    /// The VTNC certifier tells a site to raise its horizon.
    VtncAdvance { to: SiteId, ts: VersionTs },
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
    /// Which site hosts the ORDUP sequencer / VTNC certifier.
    pub coordinator: SiteId,
    /// COMPE: probability that a submitted update globally aborts.
    pub abort_prob: f64,
    /// COMPE: time between origination and the global commit/abort
    /// decision.
    pub decision_delay: Duration,
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
            coordinator: SiteId(0),
            abort_prob: 0.0,
            decision_delay: Duration::from_millis(20),
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

/// Bookkeeping for one submitted update.
#[derive(Debug, Clone)]
struct Submission {
    ops: Vec<ObjectOp>,
    origin: SiteId,
    submitted_at: VirtualTime,
    /// COMPE: the coordinator's eventual decision.
    commit: bool,
    /// RITU: the version this update writes (max over its ops).
    version: Option<VersionTs>,
    /// ORDUP-seq: the assigned global sequence number.
    seq: Option<SeqNo>,
    /// Replicas that have acked application (deduplicated — the network
    /// may duplicate ack messages).
    acks: std::collections::BTreeSet<SiteId>,
    /// When the last replica applied it (completion).
    completed_at: Option<VirtualTime>,
}

/// Aggregate statistics of a run.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Updates submitted.
    pub updates: u64,
    /// Queries served (admitted).
    pub queries_served: u64,
    /// Queries rejected at least once for budget reasons.
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
    /// Completion latencies (submit → all replicas applied), for methods
    /// with ack tracking (COMMU, RITU, RITU-MV).
    pub completion_latencies: Vec<Duration>,
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

/// The simulated replicated system.
#[derive(Debug)]
pub struct SimCluster {
    config: ClusterConfig,
    sites: Vec<SiteImpl>,
    net: Network,
    sched: Scheduler<Event>,
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
    /// VTNC certifier state: current certified horizon.
    certified_vtnc: VersionTs,
    /// Global divergence-control lock-counters (§3.2): raised at
    /// origination, released once the update is resolved at every
    /// replica. Queries under COMMU/RITU/COMPE/ORDUP-L charge against
    /// these.
    global_counters: LockCounters,
    /// Spatial divergence control (§5.1): tracks the pending value
    /// deviation / changed items alongside the operation counts.
    deviation: DeviationTracker,
    /// COMPE: sites that have processed each update's outcome notice.
    outcome_seen: BTreeMap<EtId, std::collections::BTreeSet<SiteId>>,
    /// Acks already scheduled, so delivery rescans don't re-send them.
    acks_scheduled: std::collections::BTreeSet<(EtId, SiteId)>,
    stats: ClusterStats,
    /// Shared metrics registry — every site bundle registers here; the
    /// snapshot is deterministic under the sim clock (the registry never
    /// reads wall time).
    metrics: MetricsRegistry,
    /// Clones of each site's instrument bundle, so the cluster can set
    /// the authoritative per-query epsilon gauges (the admission
    /// decision for most methods happens here, not in the site).
    site_obs: Vec<SiteInstruments>,
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
        let mut site_obs = Vec::with_capacity(config.sites);
        let sites = site_ids
            .iter()
            .map(|&id| {
                let mut site = match config.method {
                    Method::OrdupSeq => SiteImpl::OrdupSeq(OrdupSite::new(id)),
                    Method::OrdupLamport => {
                        SiteImpl::OrdupLamport(OrdupLamportSite::new(id, site_ids.clone()))
                    }
                    Method::Commu => SiteImpl::Commu(CommuSite::new(id)),
                    Method::RituOverwrite => {
                        SiteImpl::RituOverwrite(RituOverwriteSite::new(id))
                    }
                    Method::RituMv => SiteImpl::RituMv(RituMvSite::new(id)),
                    Method::Compe => SiteImpl::Compe(CompeSite::new(id)),
                };
                let obs =
                    SiteInstruments::for_site(&metrics, config.method.name(), id.raw());
                site_obs.push(obs.clone());
                site.attach_metrics(obs);
                site
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
            certified_vtnc: VersionTs::MIN,
            global_counters: LockCounters::new(),
            deviation: DeviationTracker::new(),
            outcome_seen: BTreeMap::new(),
            acks_scheduled: std::collections::BTreeSet::new(),
            stats: ClusterStats::default(),
            metrics,
            site_obs,
            divergence_gauge,
            vtnc_lag_gauge,
            obs_updates,
            obs_overlap_inflight,
            obs_quiescence,
            config,
        }
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
        while let Some((now, e)) = self.sched.next_event_before(t) {
            self.handle(now, e);
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

    /// The cluster's metrics registry. Per-site series update live on
    /// the apply/query paths; the cluster-computed gauges (divergence,
    /// VTNC lag, overlap, quiescence progress) update on
    /// [`SimCluster::refresh_metrics`], which
    /// [`SimCluster::run_until_quiescent`] calls at the end of a run.
    /// Snapshots are deterministic: same seed, same workload —
    /// byte-identical [`MetricsRegistry::render`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Recomputes the cluster-derived gauges at the current instant:
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
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        for site in self.site_ids() {
            let d = self.divergent_updates(site, &objects);
            self.divergence_gauge
                .set(site.raw(), i64::try_from(d).unwrap_or(i64::MAX));
            if let SiteImpl::RituMv(s) = self.site(site) {
                let lag = self.next_version_time.saturating_sub(s.vtnc().time);
                self.vtnc_lag_gauge
                    .set(site.raw(), i64::try_from(lag).unwrap_or(i64::MAX));
            }
        }
        self.obs_overlap_inflight
            .set(i64::try_from(self.global_counters.in_flight()).unwrap_or(i64::MAX));
        let total = self.submissions.len();
        let resolved = self
            .submissions
            .iter()
            .filter(|(et, sub)| {
                let survives = sub.commit || self.config.method != Method::Compe;
                !survives || self.sites.iter().all(|s| s.has_applied(**et))
            })
            .count();
        // An empty cluster is vacuously quiescent.
        let permille = (resolved * 1000).checked_div(total).map_or(1000, |p| p as i64);
        self.obs_quiescence.set(permille);
    }

    /// The site ids.
    pub fn site_ids(&self) -> Vec<SiteId> {
        (0..self.config.sites as u64).map(SiteId).collect()
    }

    fn fresh_et(&mut self) -> EtId {
        let et = EtId(self.next_et);
        self.next_et += 1;
        et
    }

    fn site_mut(&mut self, id: SiteId) -> &mut SiteImpl {
        &mut self.sites[id.raw() as usize]
    }

    fn site(&self, id: SiteId) -> &SiteImpl {
        &self.sites[id.raw() as usize]
    }

    /// Submits an update ET at `origin` carrying `ops`, at the current
    /// virtual time. Returns the ET id. For RITU methods every write must
    /// be a `TimestampedWrite` — use [`SimCluster::submit_blind_write`]
    /// to stamp one from the global version clock.
    pub fn submit_update(&mut self, origin: SiteId, ops: Vec<ObjectOp>) -> EtId {
        let et = self.fresh_et();
        let now = self.now();
        let version = ops
            .iter()
            .filter_map(|o| match &o.op {
                Operation::TimestampedWrite(ts, _) => Some(*ts),
                _ => None,
            })
            .max();
        let commit = !self.rng.chance(self.config.abort_prob);
        let mut seq = None;

        match self.config.method {
            Method::OrdupSeq => {
                let s = self.next_seq;
                self.next_seq = self.next_seq.next();
                seq = Some(s);
                let mset = MSet::new(et, origin, ops.clone()).sequenced(s);
                // Route through the sequencer site: origin → sequencer,
                // then fan out sequencer → every site.
                let coordinator = self.config.coordinator;
                let stamped_at = if origin == coordinator {
                    now
                } else {
                    self.net.plan_send(origin, coordinator, now)[0].at
                };
                let mut deliveries: Vec<(VirtualTime, SiteId)> = Vec::new();
                for to in self.site_ids() {
                    if to == coordinator {
                        deliveries.push((stamped_at, to));
                    } else {
                        for d in self.net.plan_send(coordinator, to, stamped_at) {
                            deliveries.push((d.at, to));
                        }
                    }
                }
                self.schedule_deliveries(deliveries, mset);
            }
            Method::OrdupLamport => {
                let ts = self.send_clocks[origin.raw() as usize].tick();
                let fifo = self.fifo_counters[origin.raw() as usize];
                self.fifo_counters[origin.raw() as usize] = fifo.next();
                let mset = MSet::new(et, origin, ops.clone()).lamport(ts, fifo);
                self.broadcast_from(origin, now, mset);
            }
            Method::Commu | Method::RituOverwrite | Method::RituMv | Method::Compe => {
                let mset = MSet::new(et, origin, ops.clone());
                self.broadcast_from(origin, now, mset);
                if self.config.method == Method::Compe {
                    // The coordinator (origin) decides after the delay and
                    // broadcasts the outcome.
                    let decided_at = now + self.config.decision_delay;
                    self.schedule_outcome(et, origin, commit, decided_at);
                }
            }
        }

        // Register the update with divergence control: its lock-counters
        // stay raised until it is resolved at every replica.
        let write_set: Vec<ObjectId> = ops
            .iter()
            .filter(|o| o.op.is_write())
            .map(|o| o.object)
            .collect();
        self.global_counters.begin_update(et, write_set);
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
                acks: std::collections::BTreeSet::new(),
                completed_at: None,
            },
        );
        self.stats.updates += 1;
        self.obs_updates.inc();
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

    /// Broadcasts the COMPE outcome for `et` from its coordinator.
    fn schedule_outcome(&mut self, et: EtId, origin: SiteId, commit: bool, decided_at: VirtualTime) {
        if !commit {
            self.stats.aborts += 1;
        }
        for to in self.site_ids() {
            if to == origin {
                self.sched
                    .schedule_at(decided_at, Event::Outcome { to, et, commit });
            } else {
                for d in self.net.plan_send(origin, to, decided_at) {
                    self.sched
                        .schedule_at(d.at, Event::Outcome { to, et, commit });
                }
            }
        }
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
        // Temporarily zero the abort probability so submit_update makes
        // no automatic decision, then strip the scheduled outcome by
        // construction: with abort_prob 0 submit_update would schedule a
        // commit — so bypass it instead.
        let et = self.fresh_et();
        let now = self.now();
        let mset = MSet::new(et, origin, ops.clone());
        self.broadcast_from(origin, now, mset);
        let write_set: Vec<ObjectId> = ops
            .iter()
            .filter(|o| o.op.is_write())
            .map(|o| o.object)
            .collect();
        self.global_counters.begin_update(et, write_set);
        self.deviation
            .begin(et, ops.iter().map(|o| (o.object, &o.op)));
        self.submissions.insert(
            et,
            Submission {
                ops,
                origin,
                submitted_at: now,
                // Pending: treated as not-surviving until resolved.
                commit: false,
                version: None,
                seq: None,
                acks: std::collections::BTreeSet::new(),
                completed_at: None,
            },
        );
        self.stats.updates += 1;
        self.obs_updates.inc();
        et
    }

    /// Decides the outcome of a pending COMPE update: broadcasts
    /// commit/abort notices from the coordinator at the current time.
    /// Panics if `et` is unknown.
    #[expect(clippy::expect_used, reason = "resolving an unknown ET is a caller bug; the panic is the documented contract")]
    pub fn resolve(&mut self, et: EtId, commit: bool) {
        assert_eq!(self.config.method, Method::Compe);
        let now = self.now();
        let origin = {
            let sub = self
                .submissions
                .get_mut(&et)
                .expect("resolve of unknown update");
            sub.commit = commit;
            sub.origin
        };
        self.schedule_outcome(et, origin, commit, now);
    }

    /// Fans an MSet out from `origin` to every site (self-delivery is
    /// immediate). Sized by the MSet's wire footprint, so
    /// bandwidth-limited links charge serialization delay and congest.
    fn broadcast_from(&mut self, origin: SiteId, at: VirtualTime, mset: MSet) {
        let bytes = mset.wire_size();
        let mut deliveries: Vec<(VirtualTime, SiteId)> = Vec::new();
        for to in self.site_ids() {
            if to == origin {
                deliveries.push((at, to));
            } else {
                for d in self.net.plan_send_sized(origin, to, at, bytes) {
                    deliveries.push((d.at, to));
                }
            }
        }
        self.schedule_deliveries(deliveries, mset);
    }

    /// Schedules one `Deliver` per planned `(time, site)` pair, cloning
    /// the MSet for all but the last — the payload moves into the final
    /// event instead of being cloned once per destination and dropped at
    /// the end.
    #[expect(clippy::expect_used, reason = "the payload Option is taken exactly once, on the final destination")]
    fn schedule_deliveries(&mut self, deliveries: Vec<(VirtualTime, SiteId)>, mset: MSet) {
        let n = deliveries.len();
        let mut mset = Some(mset);
        for (i, (at, to)) in deliveries.into_iter().enumerate() {
            let m = if i + 1 == n {
                mset.take().expect("one payload per delivery run")
            } else {
                mset.as_ref().expect("payload lives until the last delivery").clone()
            };
            self.sched.schedule_at(at, Event::Deliver { to, mset: m });
        }
    }

    fn handle(&mut self, now: VirtualTime, event: Event) {
        match event {
            Event::Deliver { to, mset } => {
                // Drain every further delivery bound for this site at
                // this same instant: consecutive same-time deliveries at
                // the queue head become ONE deliver_batch call, letting
                // the method's batch fast path coalesce work. Stopping
                // at the first non-matching event preserves the global
                // event order for everything else.
                let mut batch = vec![mset];
                while let Some((_, extra)) = self.sched.next_event_if(|at, e| {
                    at == now && matches!(e, Event::Deliver { to: t, .. } if *t == to)
                }) {
                    let Event::Deliver { mset, .. } = extra else {
                        unreachable!("predicate admits only deliveries");
                    };
                    batch.push(mset);
                }
                if matches!(self.site(to), SiteImpl::OrdupLamport(_)) {
                    for m in &batch {
                        if let crate::mset::OrderTag::Lamport { ts, .. } = m.order {
                            self.send_clocks[to.raw() as usize].observe(ts);
                        }
                    }
                }
                if batch.len() == 1 {
                    if let Some(single) = batch.pop() {
                        self.site_mut(to).deliver(single);
                    }
                } else {
                    self.site_mut(to).deliver_batch(batch);
                }
                // A delivery can apply several held-back MSets at
                // once (ORDUP drains its hold-back queue, a batch
                // applies many), so scan for everything newly applied
                // at this site and ack each back to its coordinator
                // (the origin site).
                let newly_applied: Vec<(EtId, SiteId)> = self
                    .submissions
                    .iter()
                    .filter(|(id, sub)| {
                        !sub.acks.contains(&to)
                            && !self.acks_scheduled.contains(&(**id, to))
                            && self.site(to).has_applied(**id)
                    })
                    .map(|(id, sub)| (*id, sub.origin))
                    .collect();
                for (aid, aorigin) in newly_applied {
                    self.acks_scheduled.insert((aid, to));
                    if to == aorigin {
                        self.sched.schedule_at(now, Event::Ack { et: aid, from: to });
                    } else {
                        for d in self.net.plan_send(to, aorigin, now) {
                            self.sched
                                .schedule_at(d.at, Event::Ack { et: aid, from: to });
                        }
                    }
                }
            }
            Event::Ack { et, from } => {
                let n = self.config.sites;
                let completed = {
                    let Some(sub) = self.submissions.get_mut(&et) else {
                        return;
                    };
                    if !sub.acks.insert(from) || sub.acks.len() != n {
                        None
                    } else {
                        sub.completed_at = Some(now);
                        Some(sub.submitted_at)
                    }
                };
                if let Some(submitted_at) = completed {
                    self.stats.completion_latencies.push(now - submitted_at);
                    if self.config.method != Method::Compe {
                        self.global_counters.end_update(et);
                        self.deviation.end(et);
                    } else {
                        self.maybe_release_compe(et);
                    }
                    // Broadcast completion notices (lock-counter release).
                    if matches!(
                        self.config.method,
                        Method::Commu | Method::RituOverwrite
                    ) {
                        let coordinator = self.config.coordinator;
                        for to in self.site_ids() {
                            if to == coordinator {
                                self.sched.schedule_at(now, Event::Complete { to, et });
                            } else {
                                for d in self.net.plan_send(coordinator, to, now) {
                                    self.sched.schedule_at(d.at, Event::Complete { to, et });
                                }
                            }
                        }
                    }
                    if self.config.method == Method::RituMv {
                        self.recertify_vtnc(now);
                    }
                }
            }

            Event::Complete { to, et } => match self.site_mut(to) {
                SiteImpl::Commu(s) => s.complete(et),
                SiteImpl::RituOverwrite(s) => s.complete(et),
                _ => {}
            },
            Event::Outcome { to, et, commit } => {
                let report = match self.site_mut(to) {
                    SiteImpl::Compe(s) => {
                        if commit {
                            s.commit(et);
                            None
                        } else {
                            s.abort(et)
                        }
                    }
                    _ => None,
                };
                if let Some(report) = report {
                    match report.strategy {
                        RollbackStrategy::CommutativeCompensation => {
                            self.stats.fast_compensations += 1
                        }
                        RollbackStrategy::SuffixRollback => self.stats.suffix_rollbacks += 1,
                    }
                    self.stats.ops_undone += report.ops_undone as u64;
                    self.stats.ops_replayed += report.ops_replayed as u64;
                }
                // The update may now be resolved everywhere.
                self.outcome_seen.entry(et).or_default().insert(to);
                self.maybe_release_compe(et);
            }
            Event::VtncAdvance { to, ts } => {
                if let SiteImpl::RituMv(s) = self.site_mut(to) {
                    s.advance_vtnc(ts);
                }
            }
        }
    }

    /// Releases a COMPE update's lock-counters once it is fully
    /// resolved: its outcome notice has been processed at every site,
    /// and (for commits) its MSet has been applied at every site — until
    /// then some replica may still be missing its effect, so queries
    /// must keep being charged for it.
    fn maybe_release_compe(&mut self, et: EtId) {
        if self.config.method != Method::Compe {
            return;
        }
        let n = self.config.sites;
        if self.outcome_seen.get(&et).map_or(0, |s| s.len()) < n {
            return;
        }
        let Some(sub) = self.submissions.get(&et) else {
            return;
        };
        let resolved = !sub.commit || self.sites.iter().all(|s| s.has_applied(et));
        if resolved {
            self.global_counters.end_update(et);
            self.deviation.end(et);
        }
    }

    /// Recomputes the certified VTNC: the largest version v such that
    /// every submitted version ≤ v has been applied at every replica.
    /// Broadcasts the new horizon when it advances.
    fn recertify_vtnc(&mut self, now: VirtualTime) {
        let n = self.config.sites;
        let mut versions: Vec<(VersionTs, usize)> = self
            .submissions
            .values()
            .filter_map(|s| s.version.map(|v| (v, s.acks.len())))
            .collect();
        versions.sort_unstable_by_key(|(v, _)| *v);
        let mut horizon = VersionTs::MIN;
        for (v, acks) in versions {
            if acks >= n {
                horizon = v;
            } else {
                break;
            }
        }
        if horizon > self.certified_vtnc {
            self.certified_vtnc = horizon;
            let coordinator = self.config.coordinator;
            for to in self.site_ids() {
                if to == coordinator {
                    self.sched
                        .schedule_at(now, Event::VtncAdvance { to, ts: horizon });
                } else {
                    for d in self.net.plan_send(coordinator, to, now) {
                        self.sched
                            .schedule_at(d.at, Event::VtncAdvance { to, ts: horizon });
                    }
                }
            }
        }
    }

    /// Processes a single pending event. Returns `false` when none
    /// remain.
    pub fn step(&mut self) -> bool {
        match self.sched.next_event() {
            Some((now, e)) => {
                self.handle(now, e);
                true
            }
            None => false,
        }
    }

    /// Processes events until the queue drains, then (for ORDUP-Lamport)
    /// broadcasts the final heartbeat round that stabilizes the tail.
    /// Returns the virtual time at quiescence.
    pub fn run_until_quiescent(&mut self) -> VirtualTime {
        while self.step() {}
        if self.config.method == Method::OrdupLamport {
            // One heartbeat per origin, carrying a clock strictly past
            // every timestamp it ever issued.
            let beats: Vec<(SiteId, esr_core::LamportTs)> = self
                .send_clocks
                .iter()
                .map(|c| {
                    let mut ts = c.peek();
                    ts.counter += 1;
                    (c.site(), ts)
                })
                .collect();
            for site in self.sites.iter_mut() {
                if let SiteImpl::OrdupLamport(s) = site {
                    for (origin, ts) in &beats {
                        s.heartbeat(*origin, *ts);
                    }
                }
            }
            // Final ack round: updates applied during the heartbeat flush
            // never went through Ack events, so reconcile the divergence
            // control directly.
            let resolved: Vec<EtId> = self
                .submissions
                .keys()
                .filter(|et| self.sites.iter().all(|s| s.has_applied(**et)))
                .copied()
                .collect();
            for et in resolved {
                self.global_counters.end_update(et);
                self.deviation.end(et);
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
        let ritu_mv = self.config.method == Method::RituMv;
        let mut attempted_charge = 0;
        let out = match (self.config.method, &mut self.sites[site.raw() as usize]) {
            (Method::OrdupSeq, SiteImpl::OrdupSeq(s)) => {
                let token = self.next_seq;
                let charge = s.gap_to(token);
                attempted_charge = charge;
                if counter.charge(charge).is_admitted() {
                    let mut unbounded = InconsistencyCounter::new(EpsilonSpec::UNBOUNDED);
                    let values = s.query(read_set, &mut unbounded).values;
                    QueryOutcome {
                        values,
                        charged: charge,
                        admitted: true,
                    }
                } else {
                    QueryOutcome::rejected()
                }
            }
            (Method::RituMv, s @ SiteImpl::RituMv(_)) => s.query(read_set, &mut counter),
            (_, s) => {
                let charge = self
                    .global_counters
                    .inconsistency_of_set(read_set.iter().copied());
                attempted_charge = charge;
                if counter.charge(charge).is_admitted() {
                    let mut unbounded = InconsistencyCounter::new(EpsilonSpec::UNBOUNDED);
                    let values = s.query(read_set, &mut unbounded).values;
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
        // For every method but RITU-MV the admission decision is made
        // here, against the *global* divergence control — the site only
        // ever sees an unbounded wrapper. Stamp the authoritative charge
        // and limit onto the site's epsilon gauges (last write wins over
        // the site's internal view), and count rejections the site never
        // saw.
        if !ritu_mv {
            let obs = &self.site_obs[site.raw() as usize];
            if out.admitted {
                obs.query_gauges(out.charged, epsilon.limit);
            } else {
                obs.query(attempted_charge, epsilon.limit, false);
            }
        }
        if out.admitted {
            self.stats.queries_served += 1;
            self.stats.total_charged += out.charged;
        } else {
            self.stats.queries_rejected += 1;
        }
        out
    }

    /// The outcome of a spatially-bounded query (§5.1 extension).
    #[allow(clippy::type_complexity)]
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
        let values = if admitted {
            let mut unbounded = InconsistencyCounter::new(EpsilonSpec::UNBOUNDED);
            self.sites[site.raw() as usize]
                .query(read_set, &mut unbounded)
                .values
        } else {
            Vec::new()
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
        self.site(site).snapshot()
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
        let first = Self::normalize(self.sites[0].snapshot());
        self.sites
            .iter()
            .all(|s| Self::normalize(s.snapshot()) == first)
    }

    /// True when replica state semantically equals the serial oracle
    /// ([`SimCluster::expected_state`]).
    pub fn matches_oracle(&self) -> bool {
        Self::normalize(self.sites[0].snapshot()) == Self::normalize(self.expected_state())
    }

    /// Total backlog across sites (should be zero at quiescence).
    pub fn total_backlog(&self) -> usize {
        self.sites.iter().map(|s| s.backlog()).sum()
    }

    /// The 1SR oracle: the state produced by applying every *surviving*
    /// (committed) update in its serialization order — sequence order for
    /// ORDUP, version order for RITU, submission order for the
    /// commutative methods (any order yields the same state).
    #[expect(clippy::expect_used, reason = "a rejected apply is replica-state corruption; panicking is the documented contract")]
    pub fn expected_state(&self) -> BTreeMap<ObjectId, Value> {
        let mut subs: Vec<(&EtId, &Submission)> = self
            .submissions
            .iter()
            .filter(|(_, s)| s.commit || self.config.method != Method::Compe)
            .collect();
        match self.config.method {
            Method::OrdupSeq => subs.sort_by_key(|(_, s)| s.seq),
            Method::RituOverwrite | Method::RituMv => subs.sort_by_key(|(_, s)| s.version),
            // Submission order equals EtId order for the rest. For
            // ORDUP-L the Lamport order also equals submission order in
            // this driver because each submission ticks the origin clock
            // at submit time and the scheduler hands out monotone times —
            // convergence tests verify this empirically.
            _ => {}
        }
        let mut store = ObjectStore::new();
        for (_, sub) in subs {
            for op in &sub.ops {
                if op.op.is_write() {
                    match &op.op {
                        Operation::TimestampedWrite(ts, v) => {
                            // Fold with LWW semantics on a side table.
                            let cur = store.get(op.object);
                            let _ = cur;
                            let _ = ts;
                            store.put(op.object, v.clone());
                        }
                        _ => {
                            store.apply(op).expect("oracle ops apply cleanly");
                        }
                    }
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
                let touches = sub
                    .ops
                    .iter()
                    .any(|o| o.op.is_write() && objects.contains(&o.object));
                if !touches {
                    return false;
                }
                let survives = sub.commit || self.config.method != Method::Compe;
                let applied = self.site(site).has_applied(**et);
                survives != applied
            })
            .count() as u64
    }

    /// Committed updates writing any of `objects` not yet applied at
    /// `site` (a one-sided view of [`SimCluster::divergent_updates`]).
    pub fn missing_updates(&self, site: SiteId, objects: &[ObjectId]) -> u64 {
        self.submissions
            .iter()
            .filter(|(et, sub)| {
                (sub.commit || self.config.method != Method::Compe)
                    && sub
                        .ops
                        .iter()
                        .any(|o| o.op.is_write() && objects.contains(&o.object))
                    && !self.site(site).has_applied(**et)
            })
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_net::latency::LatencyModel;

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
            (t, c.net_stats(), c.snapshot_of(SiteId(0)))
        };
        let (t1, n1, s1) = run();
        let (t2, n2, s2) = run();
        assert_eq!(t1, t2);
        assert_eq!(n1, n2);
        assert_eq!(s1, s2);
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
}

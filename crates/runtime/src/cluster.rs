//! A thread-per-site replicated cluster with real concurrency.
//!
//! Where [`esr_replica::SimCluster`] runs the protocols under a
//! deterministic virtual clock, this runtime runs one
//! [`NodeCore`] — the pure control core `esrd` executes and `esr-model`
//! checks — per OS thread, connected by channels. The cluster is only
//! an **effect executor**: a site thread feeds inbound frames to
//! `core.step` and performs the returned [`Effect`]s in order (sends to
//! peers, event-log records); ORDUP hold-back, completion
//! tracking, VTNC certification and COMPE decisions are decided in
//! `ctrl.rs` and nowhere else. Site 0 holds the coordinator role
//! (view 0; no heartbeat tick is ever injected, so the role never
//! moves). Updates propagate asynchronously: `submit_update` returns as
//! soon as the submit is handed to the origin, queries run against
//! whichever state the local replica has, and `quiesce` waits for the
//! system to settle — at which point all replicas are identical, the
//! ESR convergence guarantee.
//!
//! This is the plain in-process runtime — what `examples/`, the stress
//! tests and `esr-check`'s schedule explorer run. Its links are
//! channels and its sites never die, so nothing is journalled; faults
//! (loss, duplication, partitions, reordering, crash and restart) are
//! injected under virtual time by [`esr_replica::SimCluster`], and real
//! files and real processes under `kill -9` are
//! [`crate::ProcCluster`]'s.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::atomic::AtomicCell;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};

use esr_core::divergence::{EpsilonSpec, InconsistencyCounter};
use esr_core::ids::{ClientId, EtId, ObjectId, SeqNo, SiteId, VersionTs};
use esr_core::op::{ObjectOp, Operation};
use esr_core::value::Value;
use esr_obs::{GaugeFamily, MetricsRegistry, SiteInstruments};
use esr_replica::mset::MSet;
use esr_replica::site::QueryOutcome;
use esr_replica::span::{Event, SpanRec, SpanStage};
use esr_replica::wire::Frame;
use esr_sim::probe;

use crate::ctrl::{CtrlCanary, Effect, NodeCore, NodeEvent};
use crate::spans::{EventLog, RawEvent, SPAN_QUERY_ALL};
use crate::state::{RtMethod, SiteState};

/// Logical shared-memory location namespace for the per-site protocol
/// state, annotated via [`probe::mem_read`] / [`probe::mem_write`] so
/// checked runs prove site state stays thread-confined (each location
/// is only ever touched by its owning site thread — any cross-thread
/// access without a happens-before edge is a race finding).
const SITE_STATE_LOC: u64 = 1 << 48;

/// A quiesce wait that did not settle before its deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuiesceTimeout {
    /// How long the wait actually lasted.
    pub waited: std::time::Duration,
    /// Pending work observed per site at the deadline: the site's inbox
    /// depth (thread runtime) or its reported apply backlog (process
    /// runtime). `None` when the site could not be reached — usually
    /// the site that is wedging the quiesce.
    pub site_queues: Vec<Option<u64>>,
    /// Which site reported holding the coordinator role at the
    /// deadline (process runtime; the thread runtime pins the role to
    /// site 0 and reports `None`). A timeout with no reachable
    /// coordinator usually means the killed coordinator was never
    /// restarted and no surviving site suspected it yet.
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

/// Seeded defect canaries for `esr-check`: each one disables a single
/// safety mechanism the checker's oracles must then flag. Production
/// clusters always run [`RtCanary::None`]; the other variants exist so
/// the checking pipeline can prove it *would* catch each defect class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RtCanary {
    /// No fault injected (the only variant production code should use).
    #[default]
    None,
    /// ORDUP sites apply MSets in arrival order, bypassing the core and
    /// its sequencer hold-back — the certifier's `ordup-order` clause
    /// must flag out-of-order applications.
    OrdupSequencerDisabled,
    /// Sites answer queries with an unbounded budget regardless of the
    /// declared `EpsilonSpec` — the epsilon-accounting oracle must flag
    /// admitted queries whose charge exceeds their declared bound.
    EpsilonIgnored,
    /// The coordinator certifies a VTNC advance on the *first* install
    /// report instead of waiting for all sites (the control core's own
    /// [`CtrlCanary::StaleVtncCert`]) — the certifier's
    /// `vtnc-visibility` clause must flag advances past a site's
    /// installed prefix.
    VtncEagerCertify,
}

enum SiteMsg {
    /// A wire frame for the site's core. A frame whose sender is the
    /// site itself arrived on its client plane (`Submit`, `Decision`);
    /// any other sender is a peer link.
    Frame { from: SiteId, frame: Frame },
    /// A rendezvous with the site thread (query / snapshot / settled /
    /// has-applied), answered from the live core — its public
    /// `state` — the way `esrd` answers its client plane.
    Inspect(Box<dyn FnOnce(&mut Site) + Send>),
    /// Tear the site thread down.
    Stop,
}

/// Every site's inbox — how frames travel between sites (and from the
/// cluster's client plane to a site): the executor of [`Effect::Send`].
#[derive(Clone)]
struct Inboxes(Arc<Vec<Sender<SiteMsg>>>);

impl Inboxes {
    fn send(&self, from: SiteId, to: SiteId, frame: Frame) {
        let _ = self.0[to.raw() as usize].send(SiteMsg::Frame { from, frame });
    }
}

/// Every site of an `n`-site cluster except `me`, in id order.
fn peers(me: SiteId, n: usize) -> impl Iterator<Item = SiteId> {
    (0..n as u64).map(SiteId).filter(move |s| *s != me)
}

/// Everything a site thread needs besides its receiver.
#[derive(Clone)]
struct SiteSpawn {
    method: RtMethod,
    n: usize,
    canary: RtCanary,
    inboxes: Inboxes,
    metrics: MetricsRegistry,
}

/// The cluster's handle on one site.
struct SiteSlot {
    /// `None` after shutdown.
    thread: Option<JoinHandle<()>>,
    events: EventLog,
}

/// A running thread-per-site cluster.
///
/// ```
/// use esr_core::divergence::EpsilonSpec;
/// use esr_core::ids::{ObjectId, SiteId};
/// use esr_core::op::{ObjectOp, Operation};
/// use esr_core::value::Value;
/// use esr_runtime::{Cluster, RtMethod};
///
/// let cluster = Cluster::new(RtMethod::Commu, 3);
/// cluster.submit_update(SiteId(0), vec![ObjectOp::new(ObjectId(0), Operation::Incr(5))]);
/// cluster.quiesce();
/// assert!(cluster.converged());
/// let out = cluster.query(SiteId(2), &[ObjectId(0)], EpsilonSpec::STRICT);
/// assert_eq!(out.values, vec![Value::Int(5)]);
/// ```
pub struct Cluster {
    sites: Vec<SiteSlot>,
    sequencer: AtomicCell,
    version_clock: AtomicCell,
    // Instrumented (an ET allocation is a preemption point): concurrent
    // submitters' ET numbering must be schedule-determined, not a free
    // race the explorer cannot replay.
    next_et: AtomicCell,
    n: usize,
    spawn_cfg: SiteSpawn,
    /// `esr_divergence{site}`: objects where the site's quiesced value
    /// disagrees with the cluster consensus (see
    /// [`Cluster::refresh_metrics`]).
    divergence_gauge: GaugeFamily,
    /// `esr_site_queue_depth{site}`: the site inbox depth, sampled by
    /// the quiesce polls and [`Cluster::refresh_metrics`].
    queue_depth_gauge: GaugeFamily,
}

/// One site thread's world: the pure core plus what its effects act on.
struct Site {
    core: NodeCore,
    inboxes: Inboxes,
    events: EventLog,
    canary: RtCanary,
}

impl Site {
    /// Boots a site around a fresh core.
    fn boot(i: usize, cfg: SiteSpawn, events: EventLog) -> Self {
        let SiteSpawn { method, n, .. } = cfg;
        let id = SiteId(i as u64);
        let mut state = SiteState::new(method, id);
        state.attach_metrics(SiteInstruments::for_site(&cfg.metrics, method.name(), id.raw()));
        let ctrl_canary =
            (cfg.canary == RtCanary::VtncEagerCertify).then_some(CtrlCanary::StaleVtncCert);
        Self {
            core: NodeCore::fresh(state, method, id, n, ctrl_canary),
            inboxes: cfg.inboxes,
            events,
            canary: cfg.canary,
        }
    }

    /// Steps the core with one inbound frame and performs the effects.
    fn on_frame(&mut self, from: SiteId, frame: Frame) {
        let me = self.core.site;
        // Canary: apply in raw arrival order, bypassing the core and
        // with it the ORDUP hold-back, and record the apply span the
        // core would have — the certifier's `ordup-order` clause must
        // flag the resulting sequence inversions.
        if self.canary == RtCanary::OrdupSequencerDisabled {
            if let (SiteState::Ordup(s), Frame::MSet(m) | Frame::Submit(m)) =
                (&mut self.core.state, &frame)
            {
                if s.apply_unchecked(m.clone()) {
                    let apply = SpanRec::new(SpanStage::Apply, m.et).with_gseq(m.gseq());
                    self.events.record(Event::Span(apply));
                }
                if from == me {
                    for to in peers(me, self.core.sites) {
                        self.inboxes.send(me, to, Frame::MSet(m.clone()));
                    }
                }
                return;
            }
        }
        let event = if from != me {
            NodeEvent::PeerFrame(frame)
        } else {
            match frame {
                Frame::Submit(mset) => NodeEvent::ClientSubmit(mset),
                Frame::Decision { et, commit } => NodeEvent::ClientDecision { et, commit },
                _ => return,
            }
        };
        let effects = self.core.step(event);
        self.perform(effects);
    }

    /// Executes core effects strictly in order.
    fn perform(&mut self, effects: Vec<Effect>) {
        for effect in effects {
            match effect {
                Effect::Send { to, frame } => self.inboxes.send(self.core.site, to, frame),
                Effect::Event(event) => self.events.record(event),
                // A site thread never dies and no heartbeat tick is
                // ever injected: nothing to journal, no view past 0 to
                // record, no consumer for a checkpoint cut.
                Effect::Journal(_) | Effect::RecordView(_) | Effect::Checkpoint(_) => {}
            }
        }
    }
}

/// Spawns site `i`'s thread.
fn spawn_site(i: usize, rx: Receiver<SiteMsg>, cfg: SiteSpawn) -> SiteSlot {
    let events = EventLog::start();
    let site_events = events.clone();
    let thread = std::thread::Builder::new()
        .name(format!("esr-site-{i}"))
        .spawn(move || {
            let mut site = Site::boot(i, cfg, site_events);
            // Logical location of this site's protocol state for
            // the race detector: only this thread may touch it.
            let state_loc = SITE_STATE_LOC + i as u64;
            while let Ok(msg) = rx.recv() {
                match msg {
                    SiteMsg::Frame { from, frame } => {
                        probe::mem_write(state_loc);
                        site.on_frame(from, frame);
                    }
                    SiteMsg::Inspect(ask) => {
                        probe::mem_write(state_loc);
                        ask(&mut site);
                    }
                    SiteMsg::Stop => break,
                }
            }
        })
        .unwrap_or_else(|e| panic!("spawn site thread {i}: {e}"));
    SiteSlot {
        thread: Some(thread),
        events,
    }
}

impl Cluster {
    /// Spawns `n` site threads running `method`.
    pub fn new(method: RtMethod, n: usize) -> Self {
        Self::checked(method, n, RtCanary::None)
    }

    /// Spawns a cluster with an optional canary fault injected — the
    /// constructor `esr-check` drives.
    pub fn checked(method: RtMethod, n: usize, canary: RtCanary) -> Self {
        assert!(n > 0);
        let (senders, receivers): (Vec<_>, Vec<Receiver<SiteMsg>>) =
            (0..n).map(|_| unbounded()).unzip();
        let spawn_cfg = SiteSpawn {
            method,
            n,
            canary,
            inboxes: Inboxes(Arc::new(senders)),
            metrics: MetricsRegistry::new(),
        };
        let sites = receivers
            .into_iter()
            .enumerate()
            .map(|(i, rx)| spawn_site(i, rx, spawn_cfg.clone()))
            .collect();

        Self {
            sites,
            sequencer: AtomicCell::new(0),
            version_clock: AtomicCell::new(0),
            next_et: AtomicCell::new(1),
            n,
            divergence_gauge: GaugeFamily::new(&spawn_cfg.metrics, "esr_divergence"),
            queue_depth_gauge: GaugeFamily::new(&spawn_cfg.metrics, "esr_site_queue_depth"),
            spawn_cfg,
        }
    }

    /// Number of sites.
    pub fn sites(&self) -> usize {
        self.n
    }

    /// The method in force.
    pub fn method(&self) -> RtMethod {
        self.spawn_cfg.method
    }

    fn fresh_et(&self) -> EtId {
        EtId(self.next_et.fetch_add(1))
    }

    fn inboxes(&self) -> &[Sender<SiteMsg>] {
        &self.spawn_cfg.inboxes.0
    }

    /// Submits an update ET originating at `origin`: stamped here (ET id,
    /// ORDUP sequence), handed to the origin's core as a client submit,
    /// and fanned out to every site by the core. Returns immediately
    /// with the ET id.
    pub fn submit_update(&self, origin: SiteId, ops: Vec<ObjectOp>) -> EtId {
        let et = self.fresh_et();
        let mset = match self.spawn_cfg.method {
            RtMethod::Ordup => {
                let seq = SeqNo(self.sequencer.fetch_add(1));
                MSet::new(et, origin, ops).sequenced(seq)
            }
            _ => MSet::new(et, origin, ops),
        }
        .from_client(ClientId(0), et.0);
        self.spawn_cfg
            .inboxes
            .send(origin, origin, Frame::Submit(mset));
        et
    }

    /// Stamps and submits a RITU blind write.
    pub fn submit_blind_write(&self, origin: SiteId, object: ObjectId, value: Value) -> EtId {
        let t = self.version_clock.fetch_add(1) + 1;
        let ts = VersionTs::new(t, ClientId(origin.raw()));
        self.submit_update(
            origin,
            vec![ObjectOp::new(object, Operation::TimestampedWrite(ts, value))],
        )
    }

    /// COMPE: issues a commit decision for `et` at the coordinator
    /// (site 0), which broadcasts it.
    pub fn commit(&self, et: EtId) {
        self.decide(et, true);
    }

    /// COMPE: issues an abort decision for `et` (routed like
    /// [`Cluster::commit`]).
    pub fn abort(&self, et: EtId) {
        self.decide(et, false);
    }

    fn decide(&self, et: EtId, commit: bool) {
        let coordinator = SiteId(0);
        self.spawn_cfg
            .inboxes
            .send(coordinator, coordinator, Frame::Decision { et, commit });
    }

    /// One request/reply rendezvous with a site thread: `ask` runs on
    /// the site's thread against its live state. Degrades instead of
    /// panicking when the site is already down (shutdown raced the
    /// caller): `fallback` supplies the answer a dead site gives.
    fn rendezvous<T: Send + 'static>(
        &self,
        site: SiteId,
        ask: impl FnOnce(&mut Site) -> T + Send + 'static,
        fallback: impl FnOnce() -> T,
    ) -> T {
        let (tx, rx) = bounded(1);
        let msg = SiteMsg::Inspect(Box::new(move |s| {
            let _ = tx.send(ask(s));
        }));
        if self.inboxes()[site.raw() as usize].send(msg).is_err() {
            return fallback();
        }
        rx.recv().unwrap_or_else(|_| fallback())
    }

    /// Runs a query ET at one site with the given budget. Blocks only for
    /// the rendezvous with the site thread, not for consistency. A query
    /// against a shut-down cluster is rejected (never panics).
    pub fn query(&self, site: SiteId, read_set: &[ObjectId], epsilon: EpsilonSpec) -> QueryOutcome {
        let read_set = read_set.to_vec();
        let ask = move |s: &mut Site| {
            // Canary: ignore the declared budget — the
            // epsilon-accounting oracle must flag admitted queries whose
            // charge exceeds the spec the client declared.
            let spec = if s.canary == RtCanary::EpsilonIgnored {
                EpsilonSpec::UNBOUNDED
            } else {
                epsilon
            };
            s.core
                .state
                .query(&read_set, &mut InconsistencyCounter::new(spec))
        };
        self.rendezvous(site, ask, QueryOutcome::rejected)
    }

    /// Retries a query until its budget admits it (the synchronous
    /// fallback): useful for strict (epsilon = 0) reads, which succeed
    /// once the replica has caught up with every update it knows to be
    /// in flight. An update the site has not heard of yet — submitted at
    /// another origin a moment ago — cannot hold a read back: read at
    /// the origin (or quiesce first) to observe your own writes.
    pub fn query_blocking(
        &self,
        site: SiteId,
        read_set: &[ObjectId],
        epsilon: EpsilonSpec,
    ) -> QueryOutcome {
        loop {
            let out = self.query(site, read_set, epsilon);
            if out.admitted {
                return out;
            }
            std::thread::yield_now();
        }
    }

    /// A site's full snapshot (empty once the cluster is shut down).
    pub fn snapshot_of(&self, site: SiteId) -> BTreeMap<ObjectId, Value> {
        self.rendezvous(site, |s| s.core.state.snapshot(), BTreeMap::new)
    }

    /// Has `site` applied `et` yet? (`false` once shut down.)
    pub fn has_applied(&self, site: SiteId, et: EtId) -> bool {
        self.rendezvous(site, move |s| s.core.state.has_applied(et), || false)
    }

    /// Dumps a site's event log — every `Effect::Event` so far, as
    /// `(dropped, events)` in the shape [`crate::ProcCluster::trace_of`]
    /// returns.
    pub fn trace_of(&self, site: SiteId) -> (u64, Vec<RawEvent>) {
        self.sites[site.raw() as usize]
            .events
            .query(SPAN_QUERY_ALL)
    }

    /// Blocks until every site reports settled twice in a row (no
    /// backlog, no in-flight updates) — the quiescent state at which ESR
    /// guarantees all replicas are identical. Dead sites on a
    /// *shut-down* cluster count as settled, so shutdown paths always
    /// terminate.
    ///
    /// Panics if the cluster fails to settle within a generous default
    /// deadline (two minutes) — use [`Cluster::quiesce_within`] to
    /// handle the timeout instead.
    pub fn quiesce(&self) {
        self.quiesce_within(std::time::Duration::from_secs(120))
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// [`Cluster::quiesce`] with an explicit deadline: returns
    /// `Err(QuiesceTimeout)` instead of spinning forever when the
    /// cluster cannot settle (a protocol bug, an undecided COMPE
    /// update).
    pub fn quiesce_within(&self, deadline: std::time::Duration) -> Result<(), QuiesceTimeout> {
        let start = std::time::Instant::now();
        let mut stable_rounds = 0;
        while stable_rounds < 2 {
            if start.elapsed() > deadline {
                return Err(QuiesceTimeout {
                    waited: start.elapsed(),
                    site_queues: self.sample_queue_depths(),
                    coordinator: None,
                });
            }
            self.sample_queue_depths();
            let all_settled = (0..self.n as u64)
                .all(|i| self.rendezvous(SiteId(i), |s| s.core.state.settled(), || true));
            if all_settled {
                stable_rounds += 1;
            } else {
                stable_rounds = 0;
                std::thread::sleep(std::time::Duration::from_micros(500));
            }
        }
        self.refresh_metrics();
        Ok(())
    }

    /// True when all replicas expose identical values (call after
    /// [`Cluster::quiesce`]).
    pub fn converged(&self) -> bool {
        let first = self.snapshot_of(SiteId(0));
        (1..self.n).all(|i| self.snapshot_of(SiteId(i as u64)) == first)
    }

    /// The cluster's metrics registry. Per-site protocol series update
    /// live; the cluster-derived gauges (divergence, queue depth) are
    /// refreshed by the quiesce polls and [`Cluster::refresh_metrics`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.spawn_cfg.metrics
    }

    /// Recomputes the cluster-derived gauges:
    ///
    /// * `esr_divergence{site}` — objects whose value at the site
    ///   differs from the cluster consensus (the snapshot the largest
    ///   number of sites agree on, zero values stripped). 0 everywhere
    ///   once the cluster has quiesced and converged.
    /// * `esr_site_queue_depth{site}` — current inbox depth.
    pub fn refresh_metrics(&self) {
        fn normalize(m: BTreeMap<ObjectId, Value>) -> BTreeMap<ObjectId, Value> {
            m.into_iter().filter(|(_, v)| *v != Value::ZERO).collect()
        }
        let snaps: Vec<BTreeMap<ObjectId, Value>> = (0..self.n)
            .map(|i| normalize(self.snapshot_of(SiteId(i as u64))))
            .collect();
        let consensus = snaps
            .iter()
            .max_by_key(|cand| snaps.iter().filter(|s| s == cand).count())
            .cloned()
            .unwrap_or_default();
        for (i, snap) in snaps.iter().enumerate() {
            let differing = snap
                .iter()
                .filter(|(k, v)| consensus.get(k) != Some(v))
                .count()
                + consensus.keys().filter(|k| !snap.contains_key(k)).count();
            self.divergence_gauge
                .set(i as u64, i64::try_from(differing).unwrap_or(i64::MAX));
        }
        self.sample_queue_depths();
    }

    /// Samples every site's inbox depth into `esr_site_queue_depth` and
    /// returns the depths.
    fn sample_queue_depths(&self) -> Vec<Option<u64>> {
        self.inboxes()
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let depth = s.len() as u64;
                self.queue_depth_gauge
                    .set(i as u64, i64::try_from(depth).unwrap_or(i64::MAX));
                Some(depth)
            })
            .collect()
    }

    /// Stops all threads. Called automatically on drop.
    pub fn shutdown(&mut self) {
        for s in self.inboxes() {
            let _ = s.send(SiteMsg::Stop);
        }
        for slot in &mut self.sites {
            if let Some(h) = slot.thread.take() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const X: ObjectId = ObjectId(0);

    fn incr(n: i64) -> Vec<ObjectOp> {
        vec![ObjectOp::new(X, Operation::Incr(n))]
    }

    #[test]
    fn commu_updates_converge_across_threads() {
        let c = Cluster::new(RtMethod::Commu, 4);
        for i in 0..50 {
            c.submit_update(SiteId(i % 4), incr(1));
        }
        c.quiesce();
        assert!(c.converged());
        assert_eq!(c.snapshot_of(SiteId(0))[&X], Value::Int(50));
    }

    #[test]
    fn event_logs_merge_into_one_causal_timeline() {
        use crate::spans::{merge_timeline, span_records};
        use esr_replica::span::SpanStage;

        let c = Cluster::new(RtMethod::Commu, 3);
        c.submit_update(SiteId(0), incr(1));
        let et = c.submit_update(SiteId(1), incr(2));
        c.quiesce();
        let per_site: Vec<_> = (0..3)
            .map(|s| {
                let (dropped, events) = c.trace_of(SiteId(s));
                assert_eq!(dropped, 0);
                (SiteId(s), span_records(events))
            })
            .collect();
        let timeline = merge_timeline(&per_site, et);
        let first = |stage| timeline.iter().position(|s| s.rec.stage == stage);
        let last = |stage| timeline.iter().rposition(|s| s.rec.stage == stage);
        let count = |stage| timeline.iter().filter(|s| s.rec.stage == stage).count();
        assert_eq!(first(SpanStage::Submit), Some(0), "{timeline:#?}");
        assert_eq!(timeline[0].site, SiteId(1), "the origin recorded the submit");
        assert_eq!(count(SpanStage::Enqueue), 2);
        for stage in [SpanStage::Deliver, SpanStage::Apply, SpanStage::Complete] {
            assert_eq!(count(stage), 3, "{stage} at every site: {timeline:#?}");
        }
        assert!(last(SpanStage::Submit) < first(SpanStage::Enqueue));
        assert!(last(SpanStage::Enqueue) < first(SpanStage::Deliver));
        assert!(last(SpanStage::Deliver) < first(SpanStage::Apply));
        assert!(last(SpanStage::Apply) < first(SpanStage::Complete));
    }

    #[test]
    fn ordup_applies_in_global_order() {
        let c = Cluster::new(RtMethod::Ordup, 3);
        c.submit_update(SiteId(0), incr(10));
        c.submit_update(SiteId(1), vec![ObjectOp::new(X, Operation::MulBy(3))]);
        c.submit_update(SiteId(2), vec![ObjectOp::new(X, Operation::Decr(5))]);
        c.quiesce();
        assert!(c.converged());
        assert_eq!(c.snapshot_of(SiteId(0))[&X], Value::Int(25), "(0+10)*3-5");
    }

    #[test]
    fn ritu_blind_writes_take_newest() {
        let c = Cluster::new(RtMethod::Ritu, 3);
        for i in 0..10 {
            c.submit_blind_write(SiteId(i % 3), X, Value::Int(i as i64));
        }
        c.quiesce();
        assert!(c.converged());
        assert_eq!(c.snapshot_of(SiteId(1))[&X], Value::Int(9));
    }

    #[test]
    fn compe_commit_and_abort() {
        let c = Cluster::new(RtMethod::Compe, 3);
        let a = c.submit_update(SiteId(0), incr(10));
        let b = c.submit_update(SiteId(1), incr(5));
        c.commit(a);
        c.abort(b);
        c.quiesce();
        assert!(c.converged());
        assert_eq!(c.snapshot_of(SiteId(2))[&X], Value::Int(10));
    }

    #[test]
    fn strict_query_blocks_until_caught_up() {
        let c = Cluster::new(RtMethod::Commu, 4);
        for _ in 0..20 {
            c.submit_update(SiteId(0), incr(1));
        }
        // Read at the origin: its inbox already holds the 20 submits, and
        // each stays in flight there until every site has applied it.
        let out = c.query_blocking(SiteId(0), &[X], EpsilonSpec::STRICT);
        assert!(out.admitted);
        assert_eq!(out.charged, 0);
        assert_eq!(out.values, vec![Value::Int(20)]);
    }

    #[test]
    fn unbounded_query_returns_immediately() {
        let c = Cluster::new(RtMethod::Commu, 2);
        c.submit_update(SiteId(0), incr(7));
        let out = c.query(SiteId(1), &[X], EpsilonSpec::UNBOUNDED);
        assert!(out.admitted, "unbounded budget always admits");
    }

    #[test]
    fn concurrent_submitters_from_many_threads() {
        let c = Arc::new(Cluster::new(RtMethod::Commu, 4));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..25 {
                    c.submit_update(SiteId(t % 4), incr(1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        c.quiesce();
        assert!(c.converged());
        assert_eq!(c.snapshot_of(SiteId(0))[&X], Value::Int(200));
    }

    #[test]
    fn has_applied_visibility() {
        let c = Cluster::new(RtMethod::Commu, 2);
        let et = c.submit_update(SiteId(0), incr(1));
        c.quiesce();
        assert!(c.has_applied(SiteId(0), et));
        assert!(c.has_applied(SiteId(1), et));
        assert!(!c.has_applied(SiteId(0), EtId(999)));
    }

    #[test]
    fn shutdown_is_idempotent() {
        let mut c = Cluster::new(RtMethod::Commu, 2);
        c.submit_update(SiteId(0), incr(1));
        c.quiesce();
        c.shutdown();
        c.shutdown();
    }

}

#[cfg(test)]
mod ritu_mv_tests {
    use super::*;

    const X: ObjectId = ObjectId(0);

    #[test]
    fn ritu_mv_converges_and_certifies_across_threads() {
        let c = Cluster::new(RtMethod::RituMv, 3);
        for i in 1..=20i64 {
            c.submit_blind_write(SiteId(i as u64 % 3), X, Value::Int(i));
        }
        c.quiesce();
        assert!(c.converged());
        assert_eq!(c.snapshot_of(SiteId(0))[&X], Value::Int(20));
        // VTNC certification is asynchronous: poll the strict read until
        // the horizon covers the newest version (bounded wait).
        for attempt in 0..10_000 {
            let out = c.query(SiteId(1), &[X], EpsilonSpec::STRICT);
            assert!(out.admitted, "RITU-MV strict reads never reject");
            if out.values == vec![Value::Int(20)] && out.charged == 0 {
                return;
            }
            if attempt % 100 == 99 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            std::thread::yield_now();
        }
        panic!("VTNC never certified the newest version");
    }

    #[test]
    fn ritu_mv_strict_reads_are_stable_not_torn() {
        let c = Cluster::new(RtMethod::RituMv, 4);
        for i in 1..=50i64 {
            c.submit_blind_write(SiteId(i as u64 % 4), X, Value::Int(i));
        }
        // Mid-flight strict reads serve *some* certified version — a
        // value that really was written (or zero) — never garbage.
        for _ in 0..50 {
            let out = c.query(SiteId(2), &[X], EpsilonSpec::STRICT);
            assert!(out.admitted);
            let v = out.values[0].as_int().unwrap();
            assert!((0..=50).contains(&v), "impossible value {v}");
        }
        c.quiesce();
        assert!(c.converged());
    }
}

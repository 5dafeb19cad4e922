//! Pre-registered instrument bundles for the hot paths.
//!
//! A [`SiteInstruments`] bundles every per-site series, so feeding
//! them never touches the registry mutex — just the handles' relaxed
//! atomics. The replica sites know nothing of it: the executor that
//! owns a registry (esrd, the simulator) holds the bundle and feeds it
//! from the events its core emits, from each query outcome, and from
//! the site's state when the registry is read.
//!
//! [`LinkInstruments`] does the same for one directed TCP link,
//! [`ReactorInstruments`] for a daemon's poll-driven I/O reactor and
//! [`CkptInstruments`] for its checkpoint chain; those three are an
//! `Option<Arc<…>>` whose `Default` is a detached no-op (one branch per
//! call), which is what a link or reactor built without a registry
//! runs with. [`GaugeFamily`] lazily registers one gauge per site id
//! (divergence, VTNC lag) keyed through the shared
//! [`esr_core::fastid`] hasher.

use std::sync::{Arc, Mutex, MutexGuard};

use esr_core::fastid::FastIdMap;

use crate::registry::{Counter, Gauge, Histogram, MetricsRegistry};

/// Largest epsilon limit a gauge can represent; `u64` limits at or
/// above this (the UNBOUNDED spec) clamp here.
const GAUGE_MAX: i64 = i64::MAX;

fn as_gauge(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(GAUGE_MAX)
}

#[derive(Debug)]
struct SiteCells {
    msets_delivered: Counter,
    msets_applied: Counter,
    redelivered: Counter,
    backlog: Gauge,
    at_risk: Gauge,
    compensations: Counter,
    lock_counter_high_water: Gauge,
    vtnc_time: Gauge,
    vtnc_lag: Gauge,
    query_epsilon_charged: Gauge,
    query_epsilon_limit: Gauge,
    epsilon_charged_total: Counter,
    queries_admitted: Counter,
    queries_rejected: Counter,
}

/// Per-site instrument bundle, held by the executor that owns the
/// registry — never by a site.
#[derive(Debug, Clone)]
pub struct SiteInstruments {
    cells: Arc<SiteCells>,
}

impl SiteInstruments {
    /// Registers the full per-site series family for `method` at
    /// `site` and returns live handles. Every series appears in the
    /// registry immediately (at zero), so scrapes see the catalogue
    /// even before traffic.
    pub fn for_site(registry: &MetricsRegistry, method: &str, site: u64) -> Self {
        let site = site.to_string();
        let l: &[(&str, &str)] = &[("method", method), ("site", &site)];
        Self {
            cells: Arc::new(SiteCells {
                msets_delivered: registry.counter("esr_msets_delivered_total", l),
                msets_applied: registry.counter("esr_msets_applied_total", l),
                redelivered: registry.counter("esr_redelivered_total", l),
                backlog: registry.gauge("esr_backlog", l),
                at_risk: registry.gauge("esr_at_risk", l),
                compensations: registry.counter("esr_compensations_total", l),
                lock_counter_high_water: registry
                    .gauge("esr_commu_lock_counter_high_water", l),
                vtnc_time: registry.gauge("esr_vtnc_time", l),
                vtnc_lag: registry.gauge("esr_vtnc_lag", l),
                query_epsilon_charged: registry.gauge("esr_query_epsilon_charged", l),
                query_epsilon_limit: registry.gauge("esr_query_epsilon_limit", l),
                epsilon_charged_total: registry.counter("esr_epsilon_charged_total", l),
                queries_admitted: registry.counter("esr_queries_admitted_total", l),
                queries_rejected: registry.counter("esr_queries_rejected_total", l),
            }),
        }
    }

    /// One MSet handed to the site (duplicates included).
    #[inline]
    pub fn delivered(&self) {
        self.cells.msets_delivered.inc();
    }

    /// One MSet newly applied — on arrival, or released from hold-back.
    #[inline]
    pub fn applied(&self) {
        self.cells.msets_applied.inc();
    }

    /// One duplicate delivery absorbed.
    #[inline]
    pub fn redelivered(&self) {
        self.cells.redelivered.inc();
    }

    /// One query outcome: epsilon `charged` against `limit`,
    /// admitted or rejected. Records both the last-query gauges and the
    /// running totals.
    #[inline]
    pub fn query(&self, charged: u64, limit: u64, admitted: bool) {
        let c = &self.cells;
        c.query_epsilon_charged.set(as_gauge(charged));
        c.query_epsilon_limit.set(as_gauge(limit));
        if admitted {
            c.epsilon_charged_total.add(charged);
            c.queries_admitted.inc();
        } else {
            c.queries_rejected.inc();
        }
    }

    /// Hold-back depth (ORDUP) and at-risk set size (COMPE: applied but
    /// undecided ETs), as the site holds them now.
    pub fn set_pending(&self, backlog: u64, at_risk: u64) {
        self.cells.backlog.set(as_gauge(backlog));
        self.cells.at_risk.set(as_gauge(at_risk));
    }

    /// The site's cumulative compensation count (COMPE aborts rolled
    /// back). The series never moves backwards: a lower reading (a
    /// simulated site between crash and replay) leaves it where it was.
    pub fn set_compensations(&self, total: u64) {
        self.cells.compensations.raise_to(total);
    }

    /// The highest per-object lock-counter the site has seen (COMMU,
    /// RITU overwrite).
    pub fn set_lock_counter_high_water(&self, v: u64) {
        self.cells.lock_counter_high_water.set(as_gauge(v));
    }

    /// RITU-MV: the certified VTNC horizon, and how far it trails the
    /// newest version this site has installed (0 once the horizon
    /// catches up). The sim cluster additionally publishes a
    /// globally-computed `esr_vtnc_lag{site}` that also counts versions
    /// not yet delivered here.
    pub fn set_vtnc(&self, time: u64, lag: u64) {
        self.cells.vtnc_time.set(as_gauge(time));
        self.cells.vtnc_lag.set(as_gauge(lag));
    }
}

#[derive(Debug)]
struct LinkCells {
    queue_depth: Gauge,
    queue_age_micros: Gauge,
    sends: Counter,
    retransmits: Counter,
    dials: Counter,
    acks: Counter,
}

/// Per-link (directed `from -> to`) instrument bundle for the TCP link
/// manager. No-op until attached.
#[derive(Debug, Clone, Default)]
pub struct LinkInstruments {
    cells: Option<Arc<LinkCells>>,
}

impl LinkInstruments {
    /// Registers the link series family for the directed link named
    /// `link` (convention: `"1->2"`).
    pub fn for_link(registry: &MetricsRegistry, link: &str) -> Self {
        let l: &[(&str, &str)] = &[("link", link)];
        Self {
            cells: Some(Arc::new(LinkCells {
                queue_depth: registry.gauge("esr_link_queue_depth", l),
                queue_age_micros: registry.gauge("esr_link_queue_age_micros", l),
                sends: registry.counter("esr_link_sends_total", l),
                retransmits: registry.counter("esr_link_retransmits_total", l),
                dials: registry.counter("esr_link_dials_total", l),
                acks: registry.counter("esr_link_acks_total", l),
            })),
        }
    }

    /// Updates the queue gauges: current `depth` and the age in
    /// microseconds of the oldest continuously pending stretch (0 when
    /// the queue is empty).
    #[inline]
    pub fn queue(&self, depth: u64, age_micros: u64) {
        if let Some(c) = &self.cells {
            c.queue_depth.set(as_gauge(depth));
            c.queue_age_micros.set(as_gauge(age_micros));
        }
    }

    /// `n` frames written to the socket.
    #[inline]
    pub fn sent(&self, n: u64) {
        if let Some(c) = &self.cells {
            c.sends.add(n);
        }
    }

    /// `n` frames re-sent after a reconnect (at-least-once retries).
    #[inline]
    pub fn retransmitted(&self, n: u64) {
        if let Some(c) = &self.cells {
            c.retransmits.add(n);
        }
    }

    /// One dial attempt that produced a connection.
    #[inline]
    pub fn dialed(&self) {
        if let Some(c) = &self.cells {
            c.dials.inc();
        }
    }

    /// `n` acknowledgements reaped from the peer.
    #[inline]
    pub fn acked(&self, n: u64) {
        if let Some(c) = &self.cells {
            c.acks.add(n);
        }
    }
}

#[derive(Debug)]
struct ReactorCells {
    connections: Gauge,
    wakeups: Counter,
    poll_micros: Histogram,
    ack_batch: Histogram,
}

/// Instrument bundle for one poll-driven I/O reactor: how many sockets
/// it is multiplexing, how often the readiness loop wakes, how long
/// each `poll(2)` call blocks, and how many queue entries each outgoing
/// acknowledgement frame retires. No-op until attached.
#[derive(Debug, Clone, Default)]
pub struct ReactorInstruments {
    cells: Option<Arc<ReactorCells>>,
}

impl ReactorInstruments {
    /// Registers the reactor series family.
    pub fn for_registry(registry: &MetricsRegistry) -> Self {
        Self {
            cells: Some(Arc::new(ReactorCells {
                connections: registry.gauge("esr_reactor_connections", &[]),
                wakeups: registry.counter("esr_reactor_wakeups_total", &[]),
                poll_micros: registry.histogram("esr_reactor_poll_micros", &[]),
                ack_batch: registry.histogram("esr_ack_batch_size", &[]),
            })),
        }
    }

    /// One accepted connection entered the readiness loop.
    #[inline]
    pub fn connection_opened(&self) {
        if let Some(c) = &self.cells {
            c.connections.add(1);
        }
    }

    /// One connection left the readiness loop.
    #[inline]
    pub fn connection_closed(&self) {
        if let Some(c) = &self.cells {
            c.connections.add(-1);
        }
    }

    /// One readiness wake-up (a `poll` return with at least one ready
    /// descriptor).
    #[inline]
    pub fn wakeup(&self) {
        if let Some(c) = &self.cells {
            c.wakeups.inc();
        }
    }

    /// How long one `poll(2)` call blocked, in microseconds.
    #[inline]
    pub fn poll_tick(&self, micros: u64) {
        if let Some(c) = &self.cells {
            c.poll_micros.record(micros);
        }
    }

    /// One acknowledgement frame retiring `n` queue entries.
    #[inline]
    pub fn ack_batch(&self, n: u64) {
        if let Some(c) = &self.cells {
            c.ack_batch.record(n);
        }
    }
}

#[derive(Debug)]
struct CkptCells {
    checkpoints: Counter,
    ckpt_bytes: Gauge,
    journal_bytes: Gauge,
    journal_live: Gauge,
    truncated: Counter,
    ckpt_latency: Histogram,
    replay_latency: Histogram,
}

/// Instrument bundle for one site's checkpoint subsystem: how many
/// snapshots it installed, how large the newest image and the live
/// journal are, how many journal entries checkpoint coverage retired,
/// and how long cutting+installing a snapshot and replaying the boot
/// suffix took. No-op until attached.
#[derive(Debug, Clone, Default)]
pub struct CkptInstruments {
    cells: Option<Arc<CkptCells>>,
}

impl CkptInstruments {
    /// Registers the checkpoint series family for `site`.
    pub fn for_site(registry: &MetricsRegistry, site: u64) -> Self {
        let site = site.to_string();
        let l: &[(&str, &str)] = &[("site", &site)];
        Self {
            cells: Some(Arc::new(CkptCells {
                checkpoints: registry.counter("esr_checkpoint_total", l),
                ckpt_bytes: registry.gauge("esr_checkpoint_bytes", l),
                journal_bytes: registry.gauge("esr_journal_bytes", l),
                journal_live: registry.gauge("esr_journal_live_entries", l),
                truncated: registry.counter("esr_journal_truncated_total", l),
                ckpt_latency: registry.histogram("esr_checkpoint_latency_micros", l),
                replay_latency: registry.histogram("esr_suffix_replay_latency_micros", l),
            })),
        }
    }

    /// One snapshot installed: its container size and how long the
    /// cut-to-durable path took.
    #[inline]
    pub fn installed(&self, bytes: u64, micros: u64) {
        if let Some(c) = &self.cells {
            c.checkpoints.inc();
            c.ckpt_bytes.set(as_gauge(bytes));
            c.ckpt_latency.record(micros);
        }
    }

    /// Current journal occupancy: file bytes and live (unretired)
    /// entries.
    #[inline]
    pub fn journal(&self, bytes: u64, live_entries: u64) {
        if let Some(c) = &self.cells {
            c.journal_bytes.set(as_gauge(bytes));
            c.journal_live.set(as_gauge(live_entries));
        }
    }

    /// `n` journal entries retired by checkpoint coverage.
    #[inline]
    pub fn truncated(&self, n: u64) {
        if let Some(c) = &self.cells {
            c.truncated.add(n);
        }
    }

    /// One boot-time journal-suffix replay after a snapshot restore.
    #[inline]
    pub fn suffix_replay(&self, micros: u64) {
        if let Some(c) = &self.cells {
            c.replay_latency.record(micros);
        }
    }
}

/// A family of gauges sharing a name, one per site id — lazily
/// registered on first touch. Used for cluster-computed per-site series
/// (replica divergence, VTNC lag) where the set of sites is dynamic.
#[derive(Debug)]
pub struct GaugeFamily {
    registry: MetricsRegistry,
    name: &'static str,
    by_site: Mutex<FastIdMap<u64, Gauge>>,
}

impl GaugeFamily {
    /// A family named `name`, labelled by `site`.
    pub fn new(registry: &MetricsRegistry, name: &'static str) -> Self {
        Self {
            registry: registry.clone(),
            name,
            by_site: Mutex::new(FastIdMap::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, FastIdMap<u64, Gauge>> {
        self.by_site
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Sets the gauge for `site` (registering it on first touch).
    pub fn set(&self, site: u64, v: i64) {
        let mut map = self.lock();
        let gauge = map.entry(site).or_insert_with(|| {
            self.registry
                .gauge(self.name, &[("site", &site.to_string())])
        });
        gauge.set(v);
    }

    /// Reads the gauge for `site` (0 if never set).
    pub fn get(&self, site: u64) -> i64 {
        self.lock().get(&site).map_or(0, Gauge::get)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_bundles_are_noops() {
        let link = LinkInstruments::default();
        link.queue(4, 100);
        link.sent(2);
        let reactor = ReactorInstruments::default();
        reactor.connection_opened();
        reactor.wakeup();
        reactor.poll_tick(5);
        reactor.ack_batch(3);
    }

    #[test]
    fn reactor_bundle_updates_series() {
        let r = MetricsRegistry::new();
        let obs = ReactorInstruments::for_registry(&r);
        obs.connection_opened();
        obs.connection_opened();
        obs.connection_closed();
        obs.wakeup();
        obs.wakeup();
        obs.ack_batch(4);
        let snap = r.snapshot();
        assert_eq!(snap.value("esr_reactor_connections", &[]), Some(1));
        assert_eq!(snap.value("esr_reactor_wakeups_total", &[]), Some(2));
        // Histograms answer value() with their observation count.
        assert_eq!(snap.value("esr_ack_batch_size", &[]), Some(1));
        assert!(r.render().contains("esr_ack_batch_size_sum 4"));
    }

    #[test]
    fn site_bundle_registers_full_catalogue_at_zero() {
        let r = MetricsRegistry::new();
        SiteInstruments::for_site(&r, "COMMU", 0);
        let snap = r.snapshot();
        for name in [
            "esr_msets_delivered_total",
            "esr_msets_applied_total",
            "esr_redelivered_total",
            "esr_backlog",
            "esr_at_risk",
            "esr_compensations_total",
            "esr_commu_lock_counter_high_water",
            "esr_vtnc_time",
            "esr_vtnc_lag",
            "esr_query_epsilon_charged",
            "esr_query_epsilon_limit",
            "esr_epsilon_charged_total",
            "esr_queries_admitted_total",
            "esr_queries_rejected_total",
        ] {
            assert_eq!(
                snap.value(name, &[("method", "COMMU"), ("site", "0")]),
                Some(0),
                "{name} pre-registered"
            );
        }
    }

    #[test]
    fn site_bundle_updates_series() {
        let r = MetricsRegistry::new();
        let s = SiteInstruments::for_site(&r, "ORDUP", 2);
        for _ in 0..5 {
            s.delivered();
        }
        for _ in 0..4 {
            s.applied();
        }
        s.redelivered();
        s.set_pending(3, 1);
        s.set_compensations(2);
        s.set_compensations(1);
        s.set_lock_counter_high_water(4);
        s.set_vtnc(7, 2);
        s.query(2, 10, true);
        s.query(11, 10, false);
        let l = &[("method", "ORDUP"), ("site", "2")];
        let snap = r.snapshot();
        assert_eq!(snap.value("esr_msets_delivered_total", l), Some(5));
        assert_eq!(snap.value("esr_msets_applied_total", l), Some(4));
        assert_eq!(snap.value("esr_redelivered_total", l), Some(1));
        assert_eq!(snap.value("esr_backlog", l), Some(3));
        assert_eq!(snap.value("esr_at_risk", l), Some(1));
        assert_eq!(snap.value("esr_compensations_total", l), Some(2), "never backwards");
        assert_eq!(snap.value("esr_commu_lock_counter_high_water", l), Some(4));
        assert_eq!(snap.value("esr_vtnc_time", l), Some(7));
        assert_eq!(snap.value("esr_vtnc_lag", l), Some(2));
        assert_eq!(snap.value("esr_epsilon_charged_total", l), Some(2));
        assert_eq!(snap.value("esr_queries_admitted_total", l), Some(1));
        assert_eq!(snap.value("esr_queries_rejected_total", l), Some(1));
        assert_eq!(snap.value("esr_query_epsilon_charged", l), Some(11));
        assert_eq!(snap.value("esr_query_epsilon_limit", l), Some(10));
    }

    #[test]
    fn unbounded_epsilon_clamps_to_gauge_max() {
        let r = MetricsRegistry::new();
        let s = SiteInstruments::for_site(&r, "COMMU", 0);
        s.query(0, u64::MAX, true);
        let l = &[("method", "COMMU"), ("site", "0")];
        assert_eq!(
            r.snapshot().value("esr_query_epsilon_limit", l),
            Some(i64::MAX)
        );
    }

    #[test]
    fn ckpt_bundle_updates_series() {
        let r = MetricsRegistry::new();
        let c = CkptInstruments::for_site(&r, 1);
        c.installed(2048, 150);
        c.journal(4096, 17);
        c.truncated(9);
        c.suffix_replay(75);
        let l = &[("site", "1")];
        let snap = r.snapshot();
        assert_eq!(snap.value("esr_checkpoint_total", l), Some(1));
        assert_eq!(snap.value("esr_checkpoint_bytes", l), Some(2048));
        assert_eq!(snap.value("esr_journal_bytes", l), Some(4096));
        assert_eq!(snap.value("esr_journal_live_entries", l), Some(17));
        assert_eq!(snap.value("esr_journal_truncated_total", l), Some(9));
        assert_eq!(snap.value("esr_checkpoint_latency_micros", l), Some(1));
        assert_eq!(snap.value("esr_suffix_replay_latency_micros", l), Some(1));
        // Detached bundle is a no-op.
        let d = CkptInstruments::default();
        d.installed(1, 1);
        d.journal(1, 1);
        d.truncated(1);
        d.suffix_replay(1);
    }

    #[test]
    fn gauge_family_registers_per_site() {
        let r = MetricsRegistry::new();
        let f = GaugeFamily::new(&r, "esr_divergence");
        f.set(0, 2);
        f.set(1, 0);
        f.set(0, 0);
        assert_eq!(f.get(0), 0);
        assert_eq!(f.get(7), 0, "never-set site reads 0");
        let snap = r.snapshot();
        assert_eq!(snap.value("esr_divergence", &[("site", "0")]), Some(0));
        assert_eq!(snap.value("esr_divergence", &[("site", "1")]), Some(0));
    }
}

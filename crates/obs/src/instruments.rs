//! Pre-registered instrument bundles for the hot paths.
//!
//! A [`SiteInstruments`] bundles every per-site series one replica site
//! implementation updates, so the apply path never touches the
//! registry mutex — just the handles' relaxed atomics. The bundle is an
//! `Option<Arc<…>>`: `Default` gives a detached no-op (one branch per
//! call), which is what every site starts with until a cluster or
//! daemon attaches metrics.
//!
//! [`LinkInstruments`] does the same for one directed TCP link,
//! [`ReactorInstruments`] for a daemon's poll-driven I/O reactor, and
//! [`GaugeFamily`] lazily registers one gauge per site id (divergence,
//! VTNC lag) keyed through the shared [`esr_core::fastid`] hasher.

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

/// Per-site instrument bundle (no-op until attached).
#[derive(Debug, Clone, Default)]
pub struct SiteInstruments {
    cells: Option<Arc<SiteCells>>,
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
            cells: Some(Arc::new(SiteCells {
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
            })),
        }
    }

    /// Whether this bundle is attached to a registry.
    pub fn is_attached(&self) -> bool {
        self.cells.is_some()
    }

    /// One delivery call carrying `msets` MSets (1 for a `deliver`, 0
    /// for an ORDUP-L heartbeat that only drains), of which `applied`
    /// were newly applied — parked MSets the call released included —
    /// and `redelivered` were duplicate-suppressed.
    #[inline]
    pub fn delivered(&self, msets: u64, applied: u64, redelivered: u64) {
        if let Some(c) = &self.cells {
            c.msets_delivered.add(msets);
            c.msets_applied.add(applied);
            if redelivered > 0 {
                c.redelivered.add(redelivered);
            }
        }
    }

    /// Current hold-back backlog (ORDUP) — 0 for methods that apply
    /// immediately.
    #[inline]
    pub fn set_backlog(&self, n: u64) {
        if let Some(c) = &self.cells {
            c.backlog.set(as_gauge(n));
        }
    }

    /// Current at-risk set size (COMPE: applied but undecided ETs).
    #[inline]
    pub fn set_at_risk(&self, n: u64) {
        if let Some(c) = &self.cells {
            c.at_risk.set(as_gauge(n));
        }
    }

    /// Compensations executed (COMPE aborts rolled back).
    #[inline]
    pub fn compensations(&self, n: u64) {
        if let Some(c) = &self.cells {
            c.compensations.add(n);
        }
    }

    /// Raises the COMMU per-object lock-counter high-water mark.
    #[inline]
    pub fn lock_counter_high_water(&self, v: u64) {
        if let Some(c) = &self.cells {
            c.lock_counter_high_water.set_max(as_gauge(v));
        }
    }

    /// The site's current certified VTNC horizon (RITU-MV).
    #[inline]
    pub fn set_vtnc(&self, time: u64) {
        if let Some(c) = &self.cells {
            c.vtnc_time.set(as_gauge(time));
        }
    }

    /// RITU-MV: how far certified visibility trails the newest version
    /// this site has installed (0 once the horizon catches up). The sim
    /// cluster additionally publishes a globally-computed
    /// `esr_vtnc_lag{site}` that also counts versions not yet delivered
    /// here.
    #[inline]
    pub fn set_vtnc_lag(&self, lag: u64) {
        if let Some(c) = &self.cells {
            c.vtnc_lag.set(as_gauge(lag));
        }
    }

    /// Overrides the last-query epsilon gauges without touching the
    /// admitted/rejected totals — for a wrapper (the sim cluster) whose
    /// admission decision happens outside the site's `query` call, so
    /// the authoritative charge and limit arrive after the site already
    /// ticked its own view.
    #[inline]
    pub fn query_gauges(&self, charged: u64, limit: u64) {
        if let Some(c) = &self.cells {
            c.query_epsilon_charged.set(as_gauge(charged));
            c.query_epsilon_limit.set(as_gauge(limit));
        }
    }

    /// One query outcome: epsilon `charged` against `limit`,
    /// admitted or rejected. Records both the last-query gauges and the
    /// running totals.
    #[inline]
    pub fn query(&self, charged: u64, limit: u64, admitted: bool) {
        if let Some(c) = &self.cells {
            c.query_epsilon_charged.set(as_gauge(charged));
            c.query_epsilon_limit.set(as_gauge(limit));
            if admitted {
                c.epsilon_charged_total.add(charged);
                c.queries_admitted.inc();
            } else {
                c.queries_rejected.inc();
            }
        }
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

    /// Whether this bundle is attached to a registry.
    pub fn is_attached(&self) -> bool {
        self.cells.is_some()
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

    /// Whether this bundle is attached to a registry.
    pub fn is_attached(&self) -> bool {
        self.cells.is_some()
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

    /// Whether this bundle is attached to a registry.
    pub fn is_attached(&self) -> bool {
        self.cells.is_some()
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
        let s = SiteInstruments::default();
        assert!(!s.is_attached());
        s.delivered(10, 10, 0);
        s.query(3, 5, true);
        let link = LinkInstruments::default();
        assert!(!link.is_attached());
        link.queue(4, 100);
        link.sent(2);
        let reactor = ReactorInstruments::default();
        assert!(!reactor.is_attached());
        reactor.connection_opened();
        reactor.wakeup();
        reactor.poll_tick(5);
        reactor.ack_batch(3);
    }

    #[test]
    fn reactor_bundle_updates_series() {
        let r = MetricsRegistry::new();
        let obs = ReactorInstruments::for_registry(&r);
        assert!(obs.is_attached());
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
        let s = SiteInstruments::for_site(&r, "COMMU", 0);
        assert!(s.is_attached());
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
        s.delivered(5, 4, 1);
        s.set_backlog(3);
        s.query(2, 10, true);
        s.query(11, 10, false);
        let l = &[("method", "ORDUP"), ("site", "2")];
        let snap = r.snapshot();
        assert_eq!(snap.value("esr_msets_delivered_total", l), Some(5));
        assert_eq!(snap.value("esr_msets_applied_total", l), Some(4));
        assert_eq!(snap.value("esr_redelivered_total", l), Some(1));
        assert_eq!(snap.value("esr_backlog", l), Some(3));
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
        assert!(c.is_attached());
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
        assert!(!d.is_attached());
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

//! Pre-registered instrument bundles for the hot paths.
//!
//! A bundle is a plain struct of registered handles, filled in by its
//! one constructor; feeding a series is an update of its public handle,
//! a relaxed atomic, and never touches the registry mutex. Each bundle
//! has a registry: a test that needs one registers it in a throwaway
//! [`MetricsRegistry`].
//!
//! * [`NodeInstruments`] — one site's series, held by the executor that
//!   runs the site's node (esrd, the simulator, the model checker). The
//!   replica sites and the protocol core know nothing of it. Counters
//!   are folded from the events the node records, gauges are read from
//!   the node when the registry is, histograms are observed where the
//!   node times something.
//! * [`LinkInstruments`] — one directed TCP link, fed by the link
//!   manager.
//! * [`ReactorInstruments`] — a daemon's epoll-driven I/O reactor.

use std::sync::Arc;

use esr_core::ids::SiteId;

use crate::registry::{Counter, Gauge, Histogram, MetricsRegistry};

/// One site's series, registered once per site: every incarnation of
/// the site reports to the same ones, and a boot registers nothing.
/// Shared as one `Arc`, so a boot clones one pointer.
#[derive(Debug)]
pub struct NodeInstruments {
    /// MSets handed to the site, duplicates included
    /// (`esr_msets_delivered_total`).
    pub msets_delivered: Counter,
    /// MSets newly applied, on arrival or released from hold-back
    /// (`esr_msets_applied_total`).
    pub msets_applied: Counter,
    /// Duplicate deliveries absorbed (`esr_redelivered_total`).
    pub redelivered: Counter,
    /// ORDUP hold-back depth (`esr_backlog`).
    pub backlog: Gauge,
    /// COMPE applied-but-undecided ETs (`esr_at_risk`).
    pub at_risk: Gauge,
    /// COMPE aborts compensated, the site's own count
    /// (`esr_compensations_total`).
    pub compensations: Counter,
    /// The highest per-object lock-counter seen
    /// (`esr_lock_counter_high_water`).
    pub lock_counter_high_water: Gauge,
    /// RITU-MV's certified VTNC horizon (`esr_vtnc_time`).
    pub vtnc_time: Gauge,
    /// RITU-MV: newest locally installed version minus the horizon
    /// (`esr_vtnc_lag`).
    pub vtnc_lag: Gauge,
    /// The last query's epsilon charge (`esr_query_epsilon_charged`).
    pub query_epsilon_charged: Gauge,
    /// The last query's epsilon limit (`esr_query_epsilon_limit`).
    pub query_epsilon_limit: Gauge,
    /// Epsilon charged to admitted queries (`esr_epsilon_charged_total`).
    pub epsilon_charged_total: Counter,
    /// Queries admitted (`esr_queries_admitted_total`).
    pub queries_admitted: Counter,
    /// Queries rejected (`esr_queries_rejected_total`).
    pub queries_rejected: Counter,
    /// Journal records handed to a boot's replay
    /// (`esr_recovery_replays_total`).
    pub replays: Counter,
    /// The installed view (`esr_view`).
    pub view: Gauge,
    /// Whether this site holds the coordinator role (`esr_coordinator`).
    pub coordinator: Gauge,
    /// Elections taken part in, counted at the first StartViewChange
    /// sent per election (`esr_elections_total`).
    pub elections: Counter,
    /// First StartViewChange sent to the next view recorded
    /// (`esr_election_latency_micros`).
    pub election_latency: Histogram,
    /// Journal records plus link frames per non-empty commit
    /// (`esr_commit_records`): the batching a commit achieved.
    pub commit_records: Histogram,
    /// Latency of a non-empty commit (`esr_commit_latency_micros`).
    pub commit_latency: Histogram,
    /// Snapshots installed (`esr_checkpoint_total`).
    pub checkpoints: Counter,
    /// The newest installed snapshot's container size
    /// (`esr_checkpoint_bytes`).
    pub checkpoint_bytes: Gauge,
    /// Cut-to-durable time of an installed snapshot
    /// (`esr_checkpoint_latency_micros`).
    pub checkpoint_latency: Histogram,
    /// Journal bytes (`esr_journal_bytes`).
    pub journal_bytes: Gauge,
    /// Live, unretired journal records (`esr_journal_live_entries`).
    pub journal_live: Gauge,
    /// Journal records retired by checkpoint coverage
    /// (`esr_journal_truncated_total`).
    pub truncated: Counter,
    /// A boot's replay of the journal suffix past a restored snapshot
    /// (`esr_suffix_replay_latency_micros`).
    pub suffix_replay_latency: Histogram,
}

impl NodeInstruments {
    /// Registers `site`'s series in `registry`, the replica's labelled
    /// with `method` too. Every series appears at zero, so a scrape sees
    /// the catalogue before traffic.
    pub fn for_site(registry: &MetricsRegistry, method: &str, site: SiteId) -> Arc<Self> {
        let site = site.raw().to_string();
        let m: &[(&str, &str)] = &[("method", method), ("site", &site)];
        let s: &[(&str, &str)] = &[("site", &site)];
        Arc::new(Self {
            msets_delivered: registry.counter("esr_msets_delivered_total", m),
            msets_applied: registry.counter("esr_msets_applied_total", m),
            redelivered: registry.counter("esr_redelivered_total", m),
            backlog: registry.gauge("esr_backlog", m),
            at_risk: registry.gauge("esr_at_risk", m),
            compensations: registry.counter("esr_compensations_total", m),
            lock_counter_high_water: registry.gauge("esr_lock_counter_high_water", m),
            vtnc_time: registry.gauge("esr_vtnc_time", m),
            vtnc_lag: registry.gauge("esr_vtnc_lag", m),
            query_epsilon_charged: registry.gauge("esr_query_epsilon_charged", m),
            query_epsilon_limit: registry.gauge("esr_query_epsilon_limit", m),
            epsilon_charged_total: registry.counter("esr_epsilon_charged_total", m),
            queries_admitted: registry.counter("esr_queries_admitted_total", m),
            queries_rejected: registry.counter("esr_queries_rejected_total", m),
            replays: registry.counter("esr_recovery_replays_total", s),
            view: registry.gauge("esr_view", s),
            coordinator: registry.gauge("esr_coordinator", s),
            elections: registry.counter("esr_elections_total", s),
            election_latency: registry.histogram("esr_election_latency_micros", s),
            commit_records: registry.histogram("esr_commit_records", s),
            commit_latency: registry.histogram("esr_commit_latency_micros", s),
            checkpoints: registry.counter("esr_checkpoint_total", s),
            checkpoint_bytes: registry.gauge("esr_checkpoint_bytes", s),
            checkpoint_latency: registry.histogram("esr_checkpoint_latency_micros", s),
            journal_bytes: registry.gauge("esr_journal_bytes", s),
            journal_live: registry.gauge("esr_journal_live_entries", s),
            truncated: registry.counter("esr_journal_truncated_total", s),
            suffix_replay_latency: registry.histogram("esr_suffix_replay_latency_micros", s),
        })
    }
}

/// One directed link's series (convention: `link="1->2"`).
#[derive(Debug, Clone)]
pub struct LinkInstruments {
    /// The peer's lag in entries: frames sent it and not yet
    /// acknowledged (`esr_link_queue_depth`).
    pub queue_depth: Gauge,
    /// Age in microseconds of the oldest continuously pending stretch,
    /// 0 when the queue is empty (`esr_link_queue_age_micros`).
    pub queue_age_micros: Gauge,
    /// Frames written to the socket for the first time
    /// (`esr_link_sends_total`).
    pub sends: Counter,
    /// Frames re-sent after a reconnect (`esr_link_retransmits_total`).
    pub retransmits: Counter,
    /// Dial attempts that produced a connection (`esr_link_dials_total`).
    pub dials: Counter,
    /// Acknowledgements reaped from the peer (`esr_link_acks_total`).
    pub acks: Counter,
}

impl LinkInstruments {
    /// Registers the series of the directed link named `link`.
    pub fn for_link(registry: &MetricsRegistry, link: &str) -> Self {
        let l: &[(&str, &str)] = &[("link", link)];
        Self {
            queue_depth: registry.gauge("esr_link_queue_depth", l),
            queue_age_micros: registry.gauge("esr_link_queue_age_micros", l),
            sends: registry.counter("esr_link_sends_total", l),
            retransmits: registry.counter("esr_link_retransmits_total", l),
            dials: registry.counter("esr_link_dials_total", l),
            acks: registry.counter("esr_link_acks_total", l),
        }
    }
}

/// Why the reactor closed an accepted connection: the `cause` label of
/// `esr_reactor_closed_total`, indexing [`ReactorInstruments::closed`].
pub const CLOSE_CAUSES: [&str; 5] = ["eof", "io_error", "bad_frame", "unknown_plane", "refused"];

/// One epoll-driven I/O reactor's series.
#[derive(Debug, Clone)]
pub struct ReactorInstruments {
    /// Sockets in the readiness loop (`esr_reactor_connections`).
    pub connections: Gauge,
    /// `epoll_wait` returns with at least one ready event
    /// (`esr_reactor_wakeups_total`).
    pub wakeups: Counter,
    /// How long each `epoll_wait` call blocked — the name predates
    /// epoll (`esr_reactor_poll_micros`).
    pub poll_micros: Histogram,
    /// Accepted connections closed, by cause, in the order of
    /// [`CLOSE_CAUSES`] (`esr_reactor_closed_total{cause}`; every cause
    /// is registered up front).
    pub closed: [Counter; 5],
    /// Queue entries each outgoing acknowledgement frame retires
    /// (`esr_ack_batch_size`).
    pub ack_batch: Histogram,
}

impl ReactorInstruments {
    /// Registers the reactor's series.
    pub fn for_registry(registry: &MetricsRegistry) -> Self {
        Self {
            connections: registry.gauge("esr_reactor_connections", &[]),
            wakeups: registry.counter("esr_reactor_wakeups_total", &[]),
            poll_micros: registry.histogram("esr_reactor_poll_micros", &[]),
            closed: CLOSE_CAUSES.map(|cause| registry.counter("esr_reactor_closed_total", &[("cause", cause)])),
            ack_batch: registry.histogram("esr_ack_batch_size", &[]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_bundle_registers_its_catalogue_at_zero() {
        let r = MetricsRegistry::new();
        NodeInstruments::for_site(&r, "COMMU", SiteId(0));
        let snap = r.snapshot();
        let m: &[(&str, &str)] = &[("method", "COMMU"), ("site", "0")];
        let s: &[(&str, &str)] = &[("site", "0")];
        for name in [
            "esr_msets_delivered_total",
            "esr_msets_applied_total",
            "esr_redelivered_total",
            "esr_backlog",
            "esr_at_risk",
            "esr_compensations_total",
            "esr_lock_counter_high_water",
            "esr_vtnc_time",
            "esr_vtnc_lag",
            "esr_query_epsilon_charged",
            "esr_query_epsilon_limit",
            "esr_epsilon_charged_total",
            "esr_queries_admitted_total",
            "esr_queries_rejected_total",
        ] {
            assert_eq!(snap.value(name, m), Some(0), "{name} pre-registered");
        }
        for name in [
            "esr_recovery_replays_total",
            "esr_view",
            "esr_coordinator",
            "esr_elections_total",
            "esr_election_latency_micros",
            "esr_commit_records",
            "esr_commit_latency_micros",
            "esr_checkpoint_total",
            "esr_checkpoint_bytes",
            "esr_checkpoint_latency_micros",
            "esr_journal_bytes",
            "esr_journal_live_entries",
            "esr_journal_truncated_total",
            "esr_suffix_replay_latency_micros",
        ] {
            assert_eq!(snap.value(name, s), Some(0), "{name} pre-registered");
        }
    }

    #[test]
    fn link_and_reactor_bundles_feed_their_series() {
        let r = MetricsRegistry::new();
        let link = LinkInstruments::for_link(&r, "0->1");
        link.sends.add(2);
        link.queue_depth.set_u64(4);
        let reactor = ReactorInstruments::for_registry(&r);
        reactor.connections.add(1);
        reactor.wakeups.inc();
        reactor.ack_batch.record(4);
        reactor.closed[2].inc();
        let snap = r.snapshot();
        assert_eq!(snap.value("esr_link_sends_total", &[("link", "0->1")]), Some(2));
        assert_eq!(snap.value("esr_link_queue_depth", &[("link", "0->1")]), Some(4));
        assert_eq!(snap.value("esr_reactor_connections", &[]), Some(1));
        assert_eq!(snap.value("esr_reactor_wakeups_total", &[]), Some(1));
        for (cause, want) in CLOSE_CAUSES.iter().zip([0, 0, 1, 0, 0]) {
            assert_eq!(snap.value("esr_reactor_closed_total", &[("cause", cause)]), Some(want));
        }
        // Histograms answer value() with their observation count.
        assert_eq!(snap.value("esr_ack_batch_size", &[]), Some(1));
        assert!(r.render().contains("esr_ack_batch_size_sum 4"));
    }
}

//! Delivery planning: reliable at-least-once transport over lossy links.
//!
//! The simulator separates *planning* a message's fate from *executing*
//! it: [`Network::plan_send`] decides, deterministically from the seeded
//! RNG, when each copy of a message arrives — modelling the stable-queue
//! retry loop ("persistently retry message delivery until successful",
//! §2.2) — and the caller schedules those arrivals as events. Partitions
//! stall attempts until the window heals; drops trigger retries after the
//! retry interval; duplication can deliver a second copy.

use serde::{Deserialize, Serialize};

use esr_core::ids::{MsgId, SiteId};
use esr_sim::rng::DetRng;
use esr_sim::time::{Duration, VirtualTime};

use std::collections::BTreeMap;

use crate::faults::PartitionSchedule;
use crate::topology::Topology;

/// One planned arrival of a message copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The message this is a copy of.
    pub msg: MsgId,
    /// When the copy arrives at the destination.
    pub at: VirtualTime,
    /// How many send attempts preceded success (1 = first try).
    pub attempts: u32,
    /// True for the extra copy produced by duplication.
    pub duplicate: bool,
}

/// Counters describing everything the network did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStats {
    /// Messages handed to `plan_send`.
    pub sent: u64,
    /// Copies that will arrive.
    pub delivered: u64,
    /// Attempts lost to link drop probability.
    pub dropped_attempts: u64,
    /// Attempts blocked by a partition.
    pub partition_blocked: u64,
    /// Extra copies from duplication.
    pub duplicated: u64,
}

/// How long a stable queue waits before retrying a failed attempt.
const RETRY_INTERVAL: Duration = Duration::from_millis(50);

/// Attempts after which a send is declared stuck — over 80 virtual
/// minutes of continuous partition, i.e. a misconfigured experiment.
const MAX_ATTEMPTS: u32 = 100_000;

/// The simulated network.
///
/// ```
/// use esr_core::ids::SiteId;
/// use esr_net::latency::LatencyModel;
/// use esr_net::topology::{LinkConfig, Topology};
/// use esr_net::transport::Network;
/// use esr_sim::rng::DetRng;
/// use esr_sim::time::{Duration, VirtualTime};
///
/// let link = LinkConfig::lossy(
///     LatencyModel::Constant(Duration::from_millis(5)),
///     0.5, // half of all attempts are lost…
/// );
/// let mut net = Network::new(Topology::full_mesh(2, link), DetRng::new(7));
/// // …but reliable planning retries until one succeeds.
/// let deliveries = net.plan_send(SiteId(0), SiteId(1), VirtualTime::ZERO);
/// assert_eq!(deliveries.len(), 1);
/// assert!(deliveries[0].at >= VirtualTime::from_millis(5));
/// ```
#[derive(Debug)]
pub struct Network {
    topology: Topology,
    partitions: PartitionSchedule,
    rng: DetRng,
    next_msg: u64,
    /// Per-directed-link transmitter occupancy: a bandwidth-limited link
    /// serializes one message at a time, so later sends queue.
    busy_until: BTreeMap<(SiteId, SiteId), VirtualTime>,
    stats: NetStats,
}

impl Network {
    /// A network over `topology` with no partitions and a seeded RNG.
    pub fn new(topology: Topology, rng: DetRng) -> Self {
        Self {
            topology,
            partitions: PartitionSchedule::none(),
            rng,
            next_msg: 0,
            busy_until: BTreeMap::new(),
            stats: NetStats::default(),
        }
    }

    /// Installs a partition schedule.
    pub fn with_partitions(mut self, partitions: PartitionSchedule) -> Self {
        self.partitions = partitions;
        self
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The partition schedule.
    pub fn partitions(&self) -> &PartitionSchedule {
        &self.partitions
    }

    /// Statistics so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    fn fresh_msg(&mut self) -> MsgId {
        let id = MsgId(self.next_msg);
        self.next_msg += 1;
        id
    }

    /// Plans a **reliable** send from `from` to `to` starting at `now`:
    /// retries through drops and partitions until an attempt succeeds.
    /// Returns one arrival, or two when the link duplicates.
    ///
    /// Panics if the link stays unavailable for [`MAX_ATTEMPTS`]
    /// retries.
    pub fn plan_send(&mut self, from: SiteId, to: SiteId, now: VirtualTime) -> Vec<Delivery> {
        self.plan_send_sized(from, to, now, 0)
    }

    /// [`Network::plan_send`] for a message of `bytes` bytes: on a
    /// bandwidth-limited link the message first waits for the
    /// transmitter (earlier messages still serializing), then pays
    /// `bytes / bandwidth` of serialization delay, then the propagation
    /// latency. Zero-byte messages and unlimited links skip both.
    pub fn plan_send_sized(
        &mut self,
        from: SiteId,
        to: SiteId,
        now: VirtualTime,
        bytes: u64,
    ) -> Vec<Delivery> {
        self.stats.sent += 1;
        let msg = self.fresh_msg();
        let link = self.topology.link(from, to);
        // Serialization: claim the transmitter, pay bytes/bandwidth.
        let mut start = now;
        if let Some(bw) = link.bandwidth {
            if bytes > 0 && bw > 0 {
                let busy = self
                    .busy_until
                    .entry((from, to))
                    .or_insert(VirtualTime::ZERO);
                let tx_start = (*busy).max(now);
                let tx_us = bytes.saturating_mul(1_000_000) / bw;
                let tx_done = tx_start + Duration::from_micros(tx_us);
                *busy = tx_done;
                start = tx_done;
            }
        }
        let mut attempt_time = start;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            assert!(
                attempts <= MAX_ATTEMPTS,
                "message {msg} from {from} to {to} exceeded {MAX_ATTEMPTS} attempts"
            );
            if !self.partitions.connected(from, to, attempt_time) {
                self.stats.partition_blocked += 1;
                // Skip straight to the heal time when we can see it;
                // otherwise back off by the retry interval.
                attempt_time = self
                    .partitions
                    .next_connected(from, to, attempt_time, VirtualTime::MAX)
                    .unwrap_or(attempt_time + RETRY_INTERVAL)
                    .max(attempt_time + RETRY_INTERVAL);
                continue;
            }
            if self.rng.chance(link.drop_prob) {
                self.stats.dropped_attempts += 1;
                attempt_time += RETRY_INTERVAL;
                continue;
            }
            break;
        }
        let arrival = attempt_time + link.latency.sample(&mut self.rng);
        let mut deliveries = vec![Delivery {
            msg,
            at: arrival,
            attempts,
            duplicate: false,
        }];
        self.stats.delivered += 1;
        if self.rng.chance(link.duplicate_prob) {
            let dup_at = attempt_time + link.latency.sample(&mut self.rng);
            deliveries.push(Delivery {
                msg,
                at: dup_at,
                attempts,
                duplicate: true,
            });
            self.stats.duplicated += 1;
            self.stats.delivered += 1;
        }
        deliveries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::PartitionWindow;
    use crate::latency::LatencyModel;
    use crate::topology::LinkConfig;

    fn t(ms: u64) -> VirtualTime {
        VirtualTime::from_millis(ms)
    }

    fn mesh(n: usize, link: LinkConfig) -> Network {
        Network::new(Topology::full_mesh(n, link), DetRng::new(42))
    }

    #[test]
    fn reliable_send_on_clean_link_arrives_once() {
        let link = LinkConfig::reliable(LatencyModel::Constant(Duration::from_millis(5)));
        let mut net = mesh(2, link);
        let d = net.plan_send(SiteId(0), SiteId(1), t(0));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].at, t(5));
        assert_eq!(d[0].attempts, 1);
        assert!(!d[0].duplicate);
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn drops_cause_retries_but_delivery_always_happens() {
        let link = LinkConfig::lossy(LatencyModel::Constant(Duration::from_millis(1)), 0.7);
        let mut net = mesh(2, link);
        let mut max_attempts = 0;
        for i in 0..200 {
            let d = net.plan_send(SiteId(0), SiteId(1), t(i));
            assert_eq!(d.len(), 1, "reliable plan always delivers");
            max_attempts = max_attempts.max(d[0].attempts);
        }
        assert!(max_attempts > 1, "with 70% drop some retries must occur");
        assert!(net.stats().dropped_attempts > 0);
    }

    #[test]
    fn partition_delays_delivery_to_heal_time() {
        let link = LinkConfig::reliable(LatencyModel::Constant(Duration::from_millis(1)));
        let mut net = mesh(2, link).with_partitions(PartitionSchedule::new(vec![
            PartitionWindow::split(t(0), t(100), [SiteId(0)], [SiteId(1)]),
        ]));
        let d = net.plan_send(SiteId(0), SiteId(1), t(10));
        assert_eq!(d.len(), 1);
        assert!(d[0].at >= t(100), "arrives only after heal, got {}", d[0].at);
        assert!(d[0].attempts >= 2);
        assert!(net.stats().partition_blocked > 0);
    }

    #[test]
    fn duplication_produces_second_copy() {
        let link = LinkConfig {
            latency: LatencyModel::Constant(Duration::from_millis(2)),
            drop_prob: 0.0,
            duplicate_prob: 1.0,
            bandwidth: None,
        };
        let mut net = mesh(2, link);
        let d = net.plan_send(SiteId(0), SiteId(1), t(0));
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].msg, d[1].msg, "same message id");
        assert!(d[1].duplicate);
        assert_eq!(net.stats().duplicated, 1);
    }

    #[test]
    fn message_ids_are_unique() {
        let mut net = mesh(2, LinkConfig::default());
        let a = net.plan_send(SiteId(0), SiteId(1), t(0))[0].msg;
        let b = net.plan_send(SiteId(0), SiteId(1), t(0))[0].msg;
        assert_ne!(a, b);
    }

    #[test]
    fn same_seed_same_plan() {
        let link = LinkConfig::lossy(LatencyModel::Uniform(Duration::ZERO, Duration::from_millis(10)), 0.3);
        let plan = |seed: u64| {
            let mut net = Network::new(Topology::full_mesh(2, link), DetRng::new(seed));
            (0..50)
                .map(|i| net.plan_send(SiteId(0), SiteId(1), t(i)))
                .collect::<Vec<_>>()
        };
        assert_eq!(plan(7), plan(7));
    }

    #[test]
    fn bandwidth_adds_serialization_delay() {
        let link = LinkConfig::reliable(LatencyModel::Constant(Duration::from_millis(1)))
            .with_bandwidth(1_000_000); // 1 MB/s
        let mut net = mesh(2, link);
        // 100 KB at 1 MB/s = 100 ms serialization + 1 ms latency.
        let d = net.plan_send_sized(SiteId(0), SiteId(1), t(0), 100_000);
        assert_eq!(d[0].at, t(101));
        // A zero-byte control message is unaffected.
        let d = net.plan_send(SiteId(0), SiteId(1), t(0));
        assert_eq!(d[0].at, t(1));
    }

    #[test]
    fn bandwidth_congestion_queues_messages() {
        let link = LinkConfig::reliable(LatencyModel::Constant(Duration::from_millis(1)))
            .with_bandwidth(1_000_000);
        let mut net = mesh(2, link);
        // Three back-to-back 50 KB messages at t=0: each takes 50 ms of
        // transmitter time, so arrivals are 51, 101, 151 ms.
        let a = net.plan_send_sized(SiteId(0), SiteId(1), t(0), 50_000)[0].at;
        let b = net.plan_send_sized(SiteId(0), SiteId(1), t(0), 50_000)[0].at;
        let c = net.plan_send_sized(SiteId(0), SiteId(1), t(0), 50_000)[0].at;
        assert_eq!(a, t(51));
        assert_eq!(b, t(101));
        assert_eq!(c, t(151));
        // Different direction = different transmitter: no queueing.
        let d = net.plan_send_sized(SiteId(1), SiteId(0), t(0), 50_000)[0].at;
        assert_eq!(d, t(51));
    }

    #[test]
    fn idle_transmitter_does_not_backlog_future_sends() {
        let link = LinkConfig::reliable(LatencyModel::Constant(Duration::from_millis(1)))
            .with_bandwidth(1_000_000);
        let mut net = mesh(2, link);
        net.plan_send_sized(SiteId(0), SiteId(1), t(0), 10_000); // busy till 10ms
        // A send at t=500 starts immediately (transmitter long idle).
        let d = net.plan_send_sized(SiteId(0), SiteId(1), t(500), 10_000);
        assert_eq!(d[0].at, t(511));
    }

    #[test]
    fn retry_interval_is_respected() {
        let link = LinkConfig::lossy(LatencyModel::Constant(Duration::ZERO), 0.9);
        let mut net = mesh(2, link);
        // A plan that took k attempts arrives at least (k-1) retry
        // intervals after the send.
        for i in 0..100 {
            let d = net.plan_send(SiteId(0), SiteId(1), t(i * 10));
            let min = t(i * 10) + RETRY_INTERVAL.saturating_mul(u64::from(d[0].attempts - 1));
            assert!(d[0].at >= min);
        }
    }
}

//! Fault injection for the thread runtime: lossy links over durable
//! relay queues.
//!
//! The simulator (`esr-net`) already knows how to *plan* a message's
//! fate — drops, duplicates, partition stalls — deterministically from a
//! seed. This module puts that planner between the real site threads:
//! every wire [`Frame`] a chaos-mode site sends travels through a
//! **relay** owning a durable [`FileQueue`] — the executor of the
//! core's `Effect::Send` — and the relay consults a per-link
//! [`Network`] to decide how the transport mistreats each
//! *update-carrying* frame (`MSet` between sites, `Submit` on the
//! `i -> i` self-link, which is site `i`'s client plane). Control
//! frames (`Applied`, `Complete`, `Vtnc`, `Decision`, `Hello`,
//! snapshots) share the durable queue, so they survive a crashed
//! destination, but pass clean on their first attempt: their number
//! and order depend on thread scheduling, so planning fates for them
//! would make the trace schedule-dependent. Because each directed link
//! has its own RNG stream (forked from the plan seed) and its own
//! logical clock (one tick per update-carrying frame), the planned
//! fates — and therefore the fault trace — are identical across runs
//! of the same seed, no matter how the OS schedules the threads.
//!
//! Delivery is at-least-once, the paper's §2.2 stable-queue assumption:
//! an entry stays in the relay's durable queue until the destination
//! site acknowledges it *after* executing every effect of the step it
//! caused (journal append included). Planned extra attempts drive real
//! exponential backoff through [`StableQueue::record_attempt`]; an
//! entry whose ack never arrives (the destination crashed with the
//! message in its channel) is re-sent after an ack timeout. Sites
//! tolerate the resulting duplicates via the core's idempotency guards.
//!
//! Relays themselves never crash — they model the stable queues the
//! paper assumes survive site failures.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, RecvTimeoutError, Sender};

use esr_core::ids::SiteId;
use esr_net::faults::PartitionSchedule;
use esr_net::latency::LatencyModel;
use esr_net::topology::{LinkConfig, Topology};
use esr_net::transport::{Network, NetStats};
use esr_replica::wire::{decode_frame, Frame};
use esr_sim::rng::DetRng;
use esr_sim::time::{Duration as VDuration, VirtualTime};
use esr_storage::stable_queue::{EntryId, FileQueue, StableQueue};

/// A seeded description of how the transport misbehaves. All randomness
/// derives from `seed`; two clusters built from the same plan produce
/// byte-identical fault traces.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Master seed; each directed link forks its own RNG stream from it.
    pub seed: u64,
    /// Probability an individual send attempt is dropped (retried).
    pub drop_prob: f64,
    /// Probability a delivered entry arrives twice.
    pub duplicate_prob: f64,
    /// Partition windows over *logical ticks*: tick `k` on a link is its
    /// `k`-th update-carrying frame (see [`FaultPlan::tick`]).
    pub partitions: PartitionSchedule,
    /// First backoff step after a failed attempt; doubles per attempt.
    pub backoff_base: StdDuration,
    /// Backoff ceiling.
    pub backoff_cap: StdDuration,
    /// How long a relay waits for an ack before re-sending an entry.
    pub ack_timeout: StdDuration,
}

impl FaultPlan {
    /// A plan with no faults — every knob off, ready for builders.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            partitions: PartitionSchedule::none(),
            backoff_base: StdDuration::from_micros(200),
            backoff_cap: StdDuration::from_millis(4),
            ack_timeout: StdDuration::from_millis(40),
        }
    }

    /// Sets the per-attempt drop probability.
    pub fn with_drops(mut self, p: f64) -> Self {
        self.drop_prob = p;
        self
    }

    /// Sets the duplicate-delivery probability.
    pub fn with_duplicates(mut self, p: f64) -> Self {
        self.duplicate_prob = p;
        self
    }

    /// Installs a partition schedule (windows in logical ticks — build
    /// them with [`FaultPlan::tick`]).
    pub fn with_partitions(mut self, partitions: PartitionSchedule) -> Self {
        self.partitions = partitions;
        self
    }

    /// The logical-tick instant of a link's `k`-th update-carrying
    /// frame, for building partition windows.
    pub fn tick(k: u64) -> VirtualTime {
        VirtualTime::from_millis(k)
    }
}

/// One planned link-level fate, recorded when an update-carrying frame
/// is enqueued. The trace is a pure function of (plan seed, per-link
/// update count): control frames and re-sends after an ack timeout
/// never appear here, so neither thread scheduling nor crash timing can
/// perturb it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceEvent {
    /// Originating site.
    pub from: SiteId,
    /// Destination site.
    pub to: SiteId,
    /// `k` for the link's `k`-th update-carrying frame (its logical
    /// tick) — not the raw queue entry id, which control frames sharing
    /// the queue make schedule-dependent.
    pub entry: u64,
    /// Send attempts the planner charged before success (1 = clean).
    pub attempts: u32,
    /// True when the planner delivered a second copy.
    pub duplicate: bool,
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}->{} #{} attempts={}{}",
            self.from.raw(),
            self.to.raw(),
            self.entry,
            self.attempts,
            if self.duplicate { " dup" } else { "" }
        )
    }
}

/// Renders a sorted trace as one event per line — the byte-identical
/// artifact the reproducibility tests compare.
pub fn render_trace(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_string());
        out.push('\n');
    }
    out
}

/// Aggregated fault counters across every link of a chaos cluster.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Update-carrying frames handed to relays (control frames are not
    /// fault-planned and not counted).
    pub sent: u64,
    /// Copies handed to destination sites by the planner (first copies
    /// plus planned duplicates; excludes ack-timeout re-sends).
    pub delivered: u64,
    /// Send attempts lost to link drop probability.
    pub dropped: u64,
    /// Planned extra copies.
    pub duplicated: u64,
    /// Attempts blocked by a partition window.
    pub partition_blocked: u64,
    /// Extra attempts walked through the durable queue's backoff
    /// ([`StableQueue::record_attempt`] calls from planned retries).
    pub retries: u64,
    /// Re-sends triggered by a missing ack (crash recovery path).
    pub resends: u64,
    /// Site crashes injected.
    pub crashes: u64,
    /// Site restarts performed.
    pub restarts: u64,
}

impl ChaosStats {
    pub(crate) fn absorb(&mut self, s: &RelayStatus) {
        self.sent += s.stats.sent;
        self.delivered += s.stats.delivered;
        self.dropped += s.stats.dropped_attempts;
        self.duplicated += s.stats.duplicated;
        self.partition_blocked += s.stats.partition_blocked;
        self.retries += s.retries;
        self.resends += s.resends;
    }
}

/// Control messages understood by a relay thread.
pub(crate) enum RelayMsg {
    /// A freshly encoded frame to enqueue durably and deliver.
    Send(Bytes),
    /// The destination executed every effect of the entry's step.
    Ack { entry: EntryId },
    /// Report queue depth, counters, and the fate trace.
    Status { reply: Sender<RelayStatus> },
    Shutdown,
}

/// A relay's answer to [`RelayMsg::Status`].
pub(crate) struct RelayStatus {
    /// Unacknowledged entries still owed to the destination.
    pub pending: usize,
    pub stats: NetStats,
    pub retries: u64,
    pub resends: u64,
    pub trace: Vec<TraceEvent>,
}

/// A running relay for one directed link.
pub(crate) struct RelayHandle {
    pub sender: Sender<RelayMsg>,
    pub thread: Option<JoinHandle<()>>,
    pub to: SiteId,
}

impl RelayHandle {
    /// Rendezvous for the relay's current status; `None` once shut down.
    pub fn status(&self) -> Option<RelayStatus> {
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.sender.send(RelayMsg::Status { reply: tx }).ok()?;
        rx.recv().ok()
    }
}

fn backoff_delay(plan: &FaultPlan, attempt: u32) -> StdDuration {
    let factor = 1u32 << attempt.saturating_sub(1).min(16);
    plan.backoff_base.saturating_mul(factor).min(plan.backoff_cap)
}

/// Spawns the relay thread for the `from -> to` link. `deliver` hands a
/// decoded frame — with its queue entry and the relay's own sender, on
/// which the site acks the entry — to the destination site, returning
/// `false` when the site's channel is gone (crashed); the entry then
/// stays pending and the ack-timeout loop re-sends it.
pub(crate) fn spawn_relay(
    from: SiteId,
    to: SiteId,
    n: usize,
    plan: FaultPlan,
    queue_path: PathBuf,
    deliver: impl Fn(Frame, (EntryId, Sender<RelayMsg>)) -> bool + Send + 'static,
) -> RelayHandle {
    let (tx, rx) = unbounded();
    let ack_tx = tx.clone();
    let link = LinkConfig {
        latency: LatencyModel::Constant(VDuration::ZERO),
        drop_prob: plan.drop_prob,
        duplicate_prob: plan.duplicate_prob,
        bandwidth: None,
    };
    // One RNG stream per directed link: fates depend only on the seed
    // and this link's enqueue order, never on cross-link interleaving.
    let rng = DetRng::new(plan.seed).fork(from.raw().wrapping_mul(0x9e37) ^ to.raw());
    let handle = std::thread::Builder::new()
        .name(format!("esr-relay-{}-{}", from.raw(), to.raw()))
        .spawn(move || {
            let mut net = Network::new(Topology::full_mesh(n, link), rng)
                .with_partitions(plan.partitions.clone())
                // One retry = one logical tick, so a partition window of
                // w ticks costs at most a few planned attempts (the
                // planner jumps to the heal tick).
                .with_retry_interval(VDuration::from_millis(1))
                .with_max_attempts(4096);
            let mut queue = FileQueue::open(&queue_path)
                .unwrap_or_else(|e| panic!("open relay queue {}: {e}", queue_path.display()));
            let mut tick: u64 = 0;
            // Entries sent but not yet acked, with their last send time.
            let mut inflight: BTreeMap<EntryId, (Bytes, Instant)> = BTreeMap::new();
            let mut trace: Vec<TraceEvent> = Vec::new();
            let mut retries = 0u64;
            let mut resends = 0u64;
            let decode = |bytes: &Bytes| {
                decode_frame(bytes)
                    .unwrap_or_else(|e| panic!("relay queue holds undecodable frame: {e}"))
            };
            loop {
                match rx.recv_timeout(StdDuration::from_millis(5)) {
                    Ok(RelayMsg::Send(bytes)) => {
                        let entry = queue.enqueue(bytes.clone());
                        let frame = decode(&bytes);
                        let mut duplicate = false;
                        // Only update-carrying frames are fault-planned
                        // (and tick the link clock): their per-link count
                        // is fixed by the submission order, whereas the
                        // control traffic sharing this queue is not.
                        if matches!(frame, Frame::MSet(_) | Frame::Submit(_)) {
                            let fate = net.plan_send_sized(
                                from,
                                to,
                                VirtualTime::from_millis(tick),
                                bytes.len() as u64,
                            );
                            let attempts = fate.first().map_or(1, |d| d.attempts);
                            duplicate = fate.len() > 1;
                            trace.push(TraceEvent {
                                from,
                                to,
                                entry: tick,
                                attempts,
                                duplicate,
                            });
                            tick += 1;
                            // Walk the planned failures through the
                            // durable queue's attempt counter, paying real
                            // backoff for each: the delivery genuinely
                            // happens later.
                            for _ in 1..attempts {
                                if let Some(count) = queue.record_attempt(entry) {
                                    retries += 1;
                                    std::thread::sleep(backoff_delay(&plan, count));
                                }
                            }
                        }
                        queue.record_attempt(entry); // the successful try
                        if duplicate {
                            let _ = deliver(frame.clone(), (entry, ack_tx.clone()));
                        }
                        let _ = deliver(frame, (entry, ack_tx.clone()));
                        inflight.insert(entry, (bytes, Instant::now()));
                    }
                    Ok(RelayMsg::Ack { entry }) => {
                        queue.ack(entry);
                        inflight.remove(&entry);
                    }
                    Ok(RelayMsg::Status { reply }) => {
                        let _ = reply.send(RelayStatus {
                            pending: queue.len(),
                            stats: net.stats(),
                            retries,
                            resends,
                            trace: trace.clone(),
                        });
                    }
                    Ok(RelayMsg::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
                    Err(RecvTimeoutError::Timeout) => {}
                }
                // Ack overdue: the destination lost the message (crash
                // drained its channel) or is still down. Re-send;
                // idempotent sites absorb the extras. Checked on every
                // loop turn — not only on channel silence, which a
                // status-polling quiescer would starve indefinitely.
                let now = Instant::now();
                for (entry, (bytes, last_send)) in inflight.iter_mut() {
                    if now.duration_since(*last_send) < plan.ack_timeout {
                        continue;
                    }
                    queue.record_attempt(*entry);
                    resends += 1;
                    let _ = deliver(decode(bytes), (*entry, ack_tx.clone()));
                    *last_send = now;
                }
            }
        })
        .unwrap_or_else(|e| panic!("spawn relay thread {from}->{to}: {e}"));
    RelayHandle {
        sender: tx,
        thread: Some(handle),
        to,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let plan = FaultPlan::new(1);
        assert_eq!(backoff_delay(&plan, 1), StdDuration::from_micros(200));
        assert_eq!(backoff_delay(&plan, 2), StdDuration::from_micros(400));
        assert_eq!(backoff_delay(&plan, 3), StdDuration::from_micros(800));
        assert_eq!(backoff_delay(&plan, 10), plan.backoff_cap);
        assert_eq!(backoff_delay(&plan, 60), plan.backoff_cap, "no overflow");
    }

    #[test]
    fn trace_renders_one_line_per_event() {
        let events = vec![
            TraceEvent {
                from: SiteId(0),
                to: SiteId(1),
                entry: 0,
                attempts: 1,
                duplicate: false,
            },
            TraceEvent {
                from: SiteId(0),
                to: SiteId(2),
                entry: 1,
                attempts: 3,
                duplicate: true,
            },
        ];
        assert_eq!(render_trace(&events), "0->1 #0 attempts=1\n0->2 #1 attempts=3 dup\n");
    }

    #[test]
    fn fault_plan_builders_compose() {
        let p = FaultPlan::new(7).with_drops(0.3).with_duplicates(0.1);
        assert_eq!(p.seed, 7);
        assert!((p.drop_prob - 0.3).abs() < f64::EPSILON);
        assert!((p.duplicate_prob - 0.1).abs() < f64::EPSILON);
        assert_eq!(FaultPlan::tick(5), VirtualTime::from_millis(5));
    }
}

//! Edge cases in the delivery planner and partition schedules: the
//! degenerate windows and fault combinations the mainline tests never
//! hit, plus the `NetStats` bookkeeping identities that keep the crash
//! scenarios' oracles honest (a miscounted duplicate or drop silently weakens the
//! "faults actually fired" assertions).

use esr_core::ids::SiteId;
use esr_net::faults::{PartitionSchedule, PartitionWindow};
use esr_net::latency::LatencyModel;
use esr_net::topology::{LinkConfig, Topology};
use esr_net::transport::Network;
use esr_sim::rng::DetRng;
use esr_sim::time::{Duration, VirtualTime};

fn t(ms: u64) -> VirtualTime {
    VirtualTime::from_millis(ms)
}

fn mesh(link: LinkConfig, seed: u64) -> Network {
    Network::new(Topology::full_mesh(2, link), DetRng::new(seed))
}

const A: SiteId = SiteId(0);
const B: SiteId = SiteId(1);

#[test]
fn zero_length_window_never_blocks() {
    // start == end: the half-open [t, t) window contains no instant, so
    // it must be inert everywhere — including at exactly `t`.
    let p = PartitionSchedule::new(vec![PartitionWindow::split(t(10), t(10), [A], [B])]);
    assert!(p.connected(A, B, t(9)));
    assert!(p.connected(A, B, t(10)), "empty window blocked its own start");
    assert!(p.connected(A, B, t(11)));
    assert!(!p.partitioned_at(t(10)));
    // next_connected never stalls on it.
    assert_eq!(p.next_connected(A, B, t(10), t(100)), Some(t(10)));
    // But last_heal still reports its end: the schedule knows of it.
    assert_eq!(p.last_heal(), t(10));

    // And the planner routes traffic straight through.
    let link = LinkConfig::reliable(LatencyModel::Constant(Duration::from_millis(1)));
    let mut net = mesh(link, 1).with_partitions(p);
    let d = net.plan_send(A, B, t(10));
    assert_eq!(d[0].at, t(11));
    assert_eq!(d[0].attempts, 1);
    assert_eq!(net.stats().partition_blocked, 0);
}

#[test]
fn back_to_back_windows_block_continuously() {
    // [10,20) followed by [20,30): no connected gap at the seam — the
    // first heal instant is exactly 30.
    let p = PartitionSchedule::new(vec![
        PartitionWindow::split(t(10), t(20), [A], [B]),
        PartitionWindow::split(t(20), t(30), [A], [B]),
    ]);
    assert!(!p.connected(A, B, t(19)));
    assert!(!p.connected(A, B, t(20)), "seam instant must stay blocked");
    assert!(!p.connected(A, B, t(29)));
    assert!(p.connected(A, B, t(30)));
    assert!(p.partitioned_at(t(20)));
    assert_eq!(p.last_heal(), t(30));
    // next_connected hops across both windows in one call.
    assert_eq!(p.next_connected(A, B, t(12), t(100)), Some(t(30)));
    // A horizon inside the blocked span means "never".
    assert_eq!(p.next_connected(A, B, t(12), t(29)), None);

    // The planner delivers only after the second window heals.
    let link = LinkConfig::reliable(LatencyModel::Constant(Duration::from_millis(1)));
    let mut net = mesh(link, 1).with_partitions(p);
    let d = net.plan_send(A, B, t(12));
    assert!(d[0].at >= t(30), "arrived at {} inside the blocked span", d[0].at);
    assert!(net.stats().partition_blocked >= 1);
}

#[test]
fn overlapping_windows_heal_at_the_later_end() {
    // Overlap rather than abutment: [10,25) and [20,30) — still one
    // continuous blocked span for the cut pair.
    let p = PartitionSchedule::new(vec![
        PartitionWindow::split(t(10), t(25), [A], [B]),
        PartitionWindow::split(t(20), t(30), [A], [B]),
    ]);
    assert_eq!(p.next_connected(A, B, t(15), t(100)), Some(t(30)));
    assert!(!p.connected(A, B, t(27)), "second window still active");
    assert!(p.connected(A, B, t(30)));
}

#[test]
fn duplicates_attach_only_to_the_successful_attempt() {
    // Every attempt drops with p=0.75 and every delivery duplicates
    // with p=1.0. If the planner ever rolled duplication for a
    // *dropped* attempt, the RNG streams would interleave differently
    // and the counters below would not balance.
    let link = LinkConfig {
        latency: LatencyModel::Constant(Duration::from_millis(2)),
        drop_prob: 0.75,
        duplicate_prob: 1.0,
        bandwidth: None,
    };
    let mut net = mesh(link, 99);
    let mut total_attempts = 0u64;
    for i in 0..200 {
        let d = net.plan_send(A, B, t(i));
        // Exactly two copies: the real one and its duplicate, agreeing
        // on the message and on how many attempts preceded success.
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].msg, d[1].msg);
        assert!(!d[0].duplicate && d[1].duplicate);
        assert_eq!(d[0].attempts, d[1].attempts);
        // The duplicate is a second *arrival*, not a second attempt: it
        // departs from the same successful attempt time, and with a
        // constant-latency link that pins both arrivals to one instant.
        assert_eq!(d[1].at, d[0].at);
        total_attempts += u64::from(d[0].attempts);
    }
    let s = net.stats();
    assert_eq!(s.sent, 200);
    // One duplicate per send, no more — dropped attempts contribute
    // nothing to duplication.
    assert_eq!(s.duplicated, 200);
    assert_eq!(s.delivered, s.sent + s.duplicated);
    // Attempt accounting: every attempt either dropped or succeeded,
    // and exactly one per message succeeded.
    assert_eq!(s.dropped_attempts, total_attempts - s.sent);
    assert!(s.dropped_attempts > 0, "75% drop never fired");
}

#[test]
fn partition_blocked_and_dropped_attempts_count_separately() {
    // A lossy link under a partition: attempts before the heal charge
    // `partition_blocked`, attempts after the heal that drop charge
    // `dropped_attempts` — the two counters never blur.
    let link = LinkConfig::lossy(LatencyModel::Constant(Duration::from_millis(1)), 0.6);
    let p = PartitionSchedule::new(vec![PartitionWindow::split(t(0), t(200), [A], [B])]);
    let mut net = mesh(link, 21).with_partitions(p);
    for i in 0..50 {
        let d = net.plan_send(A, B, t(i));
        assert!(d[0].at >= t(200));
    }
    let s = net.stats();
    assert_eq!(s.sent, 50);
    assert_eq!(s.delivered, 50);
    assert!(s.partition_blocked >= 50, "every send hit the window first");
    assert!(s.dropped_attempts > 0, "post-heal drops must still fire");
}
